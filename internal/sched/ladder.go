package sched

import (
	"math"

	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/units"
	"densim/internal/workload"
)

// LadderSearch is a simulation's one frequency search, shared by the power
// manager, Predictive and CP: for a benchmark on a socket at a given
// ambient, the highest P-state index whose two-step predicted chip
// temperature stays within the limit — the uncapped ladder index behind
// chipmodel.PredictFrequency, -1 when no P-state is admissible. The power
// manager's Table III pick is this index clamped to the socket's boost cap;
// Predictive and CP use it for a candidate's own frequency and for each
// busy downwind socket's frequency before the candidate's heat arrives.
//
// The index is a pure function of (ambient bits, the benchmark's power
// curve, the socket's sink, the socket's leakage model). The last two are
// fixed per socket for the lifetime of a simulation, and the power curve is
// determined by its single scalar DynMax (see workload.Benchmark.DynMax), so
// a memo keyed by (socket, DynMax bits, ambient bits) replays exactly. It
// has two levels, both value-keyed:
//
//   - Per-curve entries (LadderCurve): one (ambient, index) pair per socket
//     for every power curve the run has met, so a socket asked about
//     several benchmarks in turn — every idle socket, as Predictive and CP
//     price each pending job on it — keeps each curve's last answer instead
//     of evicting it.
//   - A per-socket primary entry: the curve, ambient and index of the
//     socket's last Index call. A busy socket is asked about its running
//     job's curve again and again (the power manager's pick every tick,
//     CP's downwind probes), and that path stays a single compare.
//
// Being keyed by value, the memo is exact whatever its history: it is never
// invalidated — not at a completion, a migration, a fault or a snapshot
// restore — and a recycled job allocation cannot alias a stale entry. Any
// (ambient, index) pair once stored for a curve stays a true fact of that
// curve, so a miss warm-starts from the stored index on the curve's ladder
// row, and HighestAdmissibleFrom returns exactly what the cold search
// would. Every probe goes through the one admissibility cache, whose every
// verdict equals a fresh PredictTwoStep comparison (see
// chipmodel.AdmissCache).
//
// A LadderSearch belongs to one simulation and one goroutine.
type LadderSearch struct {
	srv    *geometry.Server
	leak   []chipmodel.Leakage
	admiss *chipmodel.AdmissCache
	// sinkOf[i] indexes sinks, the distinct heat sinks of the server: a
	// curve's boundary snapshot depends on the socket only through its sink.
	sinkOf []uint8
	sinks  []chipmodel.Sink
	// curves lists every power curve met so far; last is the most recent
	// Curve lookup, which a Pick loop over idle sockets repeats.
	curves []*LadderCurve
	last   *LadderCurve
	// The primary entry of socket i: curves[cur[i]] answered idx[i] at
	// amb[i]; dynMax[i] is that curve's DynMax (NaN before the first Index).
	amb    []units.Celsius
	dynMax []units.Watts
	idx    []int8
	cur    []int32
}

// LadderCurve is one power curve's entries in a LadderSearch: per socket,
// the ambient of the last search for this curve and its index. A Pick that
// asks one curve about many sockets looks the curve up once (Curve) and
// then pays one ambient compare per socket that has not moved.
type LadderCurve struct {
	ls  *LadderSearch
	pos int32
	dm  units.Watts
	// lad is the curve's dynamic-power ladder, thr[s] its boundary snapshot
	// (AdmissCache.LadderBounds) under sinks[s].
	lad []units.Watts
	thr []chipmodel.BoundsRow
	amb []units.Celsius
	idx []int8
}

// NewLadderSearch builds the search for srv's sockets with the per-socket
// leakage models leak, which must stay fixed for the life of the search.
// The admissibility cache's shared bounds pool — essential at high load,
// where job churn resets per-socket bounds every few ticks — keys bounds by
// dynamic power and sink alone, which is sound only when every socket
// carries the same leakage curve; otherwise sockets keep per-socket bounds.
func NewLadderSearch(srv *geometry.Server, leak []chipmodel.Leakage) *LadderSearch {
	n := len(leak)
	ls := &LadderSearch{
		srv:    srv,
		leak:   leak,
		admiss: chipmodel.NewAdmissCache(n),
		sinkOf: make([]uint8, n),
		amb:    make([]units.Celsius, n),
		dynMax: make([]units.Watts, n),
		idx:    make([]int8, n),
		cur:    make([]int32, n),
	}
	shared := true
	for _, l := range leak[1:] {
		if l != leak[0] {
			shared = false
			break
		}
	}
	if shared {
		ls.admiss.EnableSharedPool()
	}
	nan := units.Watts(math.NaN())
	for i := range ls.dynMax {
		ls.dynMax[i] = nan
		sink := srv.Sink(geometry.SocketID(i))
		s := 0
		for s < len(ls.sinks) && ls.sinks[s] != sink {
			s++
		}
		if s == len(ls.sinks) {
			ls.sinks = append(ls.sinks, sink)
		}
		ls.sinkOf[i] = uint8(s)
	}
	return ls
}

// Curve returns the entries of bm's power curve (dm is its DynMax), adding
// them on first sight. A run meets a handful of curves, one per benchmark
// of its mix, so the lookup is a short scan behind a one-entry cache.
func (ls *LadderSearch) Curve(bm *workload.Benchmark, dm units.Watts) *LadderCurve {
	if ls.last != nil && ls.last.dm == dm {
		return ls.last
	}
	for _, lc := range ls.curves {
		if lc.dm == dm {
			ls.last = lc
			return lc
		}
	}
	n := len(ls.leak)
	lc := &LadderCurve{
		ls:  ls,
		pos: int32(len(ls.curves)),
		dm:  dm,
		thr: make([]chipmodel.BoundsRow, len(ls.sinks)),
		amb: make([]units.Celsius, n),
		idx: make([]int8, n),
	}
	// The snapshot reads the leakage curve only through the shared bounds
	// pool, which is on only when every socket carries the same curve.
	fill := func(k int) units.Watts { return bm.DynamicPowerAt(chipmodel.Frequencies[k]) }
	for s, sink := range ls.sinks {
		lc.lad, lc.thr[s] = ls.admiss.LadderBounds(dm, fill, sink, ls.leak[0])
	}
	nan := units.Celsius(math.NaN())
	for i := range lc.amb {
		lc.amb[i], lc.idx[i] = nan, -1
	}
	ls.curves = append(ls.curves, lc)
	ls.last = lc
	return lc
}

// Index returns the uncapped ladder index of bm (whose DynMax is dm,
// hoisted by callers that loop over sockets) on socket id at ambient amb,
// and makes bm's curve the socket's primary entry, which IndexBelow reads.
// A primary hit is one compare; anything else goes through the curve's
// entry for the socket.
func (ls *LadderSearch) Index(id geometry.SocketID, bm *workload.Benchmark, dm units.Watts, amb units.Celsius) int {
	if ls.dynMax[id] == dm && ls.amb[id] == amb {
		return int(ls.idx[id])
	}
	return ls.index(id, bm, dm, amb)
}

// index is Index's miss path: the curve's entry answers, or searches, and
// the primary entry takes the result.
func (ls *LadderSearch) index(id geometry.SocketID, bm *workload.Benchmark, dm units.Watts, amb units.Celsius) int {
	var lc *LadderCurve
	if ls.dynMax[id] == dm {
		lc = ls.curves[ls.cur[id]]
	} else {
		lc = ls.Curve(bm, dm)
	}
	k := lc.Index(id, amb)
	ls.amb[id], ls.dynMax[id], ls.idx[id], ls.cur[id] = amb, dm, int8(k), lc.pos
	return k
}

// Index returns the curve's uncapped ladder index on socket id at ambient
// amb: replayed when amb is bit-equal to the curve's last search on the
// socket, found by the bounds-backed ladder search otherwise. A miss starts
// from the last index — usually still the answer, since ambients move a
// fraction of a degree per tick. It leaves the socket's primary entry
// alone.
func (lc *LadderCurve) Index(id geometry.SocketID, amb units.Celsius) int {
	if lc.amb[id] == amb {
		return int(lc.idx[id])
	}
	return lc.research(int(id), amb)
}

// research is Index's miss path: the search warm-started from the last
// index, stored as the socket's entry.
func (lc *LadderCurve) research(i int, amb units.Celsius) int {
	k := int(lc.idx[i])
	if !lc.confirms(i, k, amb) {
		k = lc.search(i, k, len(chipmodel.Frequencies)-1, amb)
	}
	lc.amb[i], lc.idx[i] = amb, int8(k)
	return k
}

// confirms reports whether the boundary snapshot alone proves k the answer
// at amb: k admissible, and k the top or k+1 inadmissible. That is the
// confirmation of its hint HighestAdmissibleFrom would make with two probes,
// decided by four compares.
func (lc *LadderCurve) confirms(i, k int, amb units.Celsius) bool {
	if k < 0 {
		return false
	}
	thr := lc.thr[lc.ls.sinkOf[i]]
	if ok, decided := thr.Decides(k, amb); !ok || !decided {
		return false
	}
	if k == len(chipmodel.Frequencies)-1 {
		return true
	}
	ok, decided := thr.Decides(k+1, amb)
	return decided && !ok
}

// IndexBelow returns the highest index at or below top that is admissible
// at ambient amb for the power curve of socket id's last Index call, without
// touching the memo: CP's prediction of a downwind socket after a
// candidate's heat has raised its ambient. The admissibility predicate is
// non-increasing in ambient, so for amb at or above the last search's
// ambient the answer is that search's index or below, and passing it as top
// costs one probe when the rise changes nothing — none when the curve's
// boundary snapshot alone proves top still admissible.
func (ls *LadderSearch) IndexBelow(id geometry.SocketID, top int, amb units.Celsius) int {
	lc := ls.curves[ls.cur[id]]
	if top >= 0 {
		if ok, decided := lc.thr[ls.sinkOf[id]].Decides(top, amb); ok && decided {
			return top
		}
	}
	return lc.search(int(id), top, top, amb)
}

// search runs the warm-started ladder search for socket i on the curve.
func (lc *LadderCurve) search(i, hint, top int, amb units.Celsius) int {
	ls := lc.ls
	lad, thr := lc.lad, lc.thr[ls.sinkOf[i]]
	sink, leak := ls.srv.Sink(geometry.SocketID(i)), ls.leak[i]
	return chipmodel.HighestAdmissibleFrom(hint, top, func(k int) bool {
		return ls.admiss.AdmissibleRow(thr, i, k, amb, lad[k], sink, leak)
	})
}

// LadderFreq maps a ladder index to its frequency, the ladder floor for -1
// (the chip cannot stop, it only throttles).
func LadderFreq(k int) units.MHz {
	if k < 0 {
		return chipmodel.FMin
	}
	return chipmodel.Frequencies[k]
}
