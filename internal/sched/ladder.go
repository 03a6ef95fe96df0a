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
// a per-socket memo keyed by (ambient bits, DynMax bits) replays exactly.
// Being keyed by value, the memo is exact whatever its history: it is never
// invalidated — not at a completion, a migration, a fault or a snapshot
// restore — and a recycled job allocation cannot alias a stale entry. A
// miss at an unchanged DynMax warm-starts from the stored index on the
// stored ladder row, and HighestAdmissibleFrom returns exactly what the
// cold search would. Every probe goes through the one admissibility cache,
// whose every verdict equals a fresh PredictTwoStep comparison (see
// chipmodel.AdmissCache).
//
// A LadderSearch belongs to one simulation and one goroutine.
type LadderSearch struct {
	srv    *geometry.Server
	leak   []chipmodel.Leakage
	admiss *chipmodel.AdmissCache
	amb    []units.Celsius
	dynMax []units.Watts
	idx    []int8
	// lad[i]/thr[i] are the dynamic-power ladder and boundary snapshot
	// (AdmissCache.LadderBounds) of dynMax[i]'s curve under socket i's sink.
	lad [][]units.Watts
	thr []chipmodel.BoundsRow
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
		amb:    make([]units.Celsius, n),
		dynMax: make([]units.Watts, n),
		idx:    make([]int8, n),
		lad:    make([][]units.Watts, n),
		thr:    make([]chipmodel.BoundsRow, n),
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
	}
	return ls
}

// Index returns the uncapped ladder index of bm (whose DynMax is dm,
// hoisted by callers that loop over sockets) on socket id at ambient amb:
// replayed when amb and dm are bit-equal to the socket's last search, found
// by the bounds-backed ladder search otherwise. A miss at the same dm starts
// from the last index — usually still the answer, since ambients move a
// fraction of a degree per tick — on the stored ladder row.
func (ls *LadderSearch) Index(id geometry.SocketID, bm *workload.Benchmark, dm units.Watts, amb units.Celsius) int {
	i := int(id)
	hint := -1
	if ls.dynMax[i] == dm {
		if ls.amb[i] == amb {
			return int(ls.idx[i])
		}
		hint = int(ls.idx[i])
	} else {
		ls.lad[i], ls.thr[i] = ls.admiss.LadderBounds(dm, func(k int) units.Watts {
			return bm.DynamicPowerAt(chipmodel.Frequencies[k])
		}, ls.srv.Sink(id), ls.leak[i])
		ls.dynMax[i] = dm
	}
	k := ls.search(i, hint, len(chipmodel.Frequencies)-1, amb)
	ls.amb[i], ls.idx[i] = amb, int8(k)
	return k
}

// IndexBelow returns the highest index at or below top that is admissible
// at ambient amb for the power curve of socket id's last Index call, without
// touching the memo: CP's prediction of a downwind socket after a
// candidate's heat has raised its ambient. The admissibility predicate is
// non-increasing in ambient, so for amb at or above the last search's
// ambient the answer is that search's index or below, and passing it as top
// costs one probe when the rise changes nothing.
func (ls *LadderSearch) IndexBelow(id geometry.SocketID, top int, amb units.Celsius) int {
	return ls.search(int(id), top, top, amb)
}

// search runs the warm-started ladder search for socket i's stored curve.
func (ls *LadderSearch) search(i, hint, top int, amb units.Celsius) int {
	lad, thr := ls.lad[i], ls.thr[i]
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
