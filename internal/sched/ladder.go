package sched

import (
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
// The index is a pure function of (ambient, the benchmark's power curve,
// the socket's sink, the socket's leakage model). The last two are fixed
// per socket for the lifetime of a simulation and take a handful of values
// (a class), and the power curve is determined by its single scalar DynMax
// (see workload.Benchmark.DynMax). So the search holds one seeded
// chipmodel.AdmissRow per (curve, class), built the first time the run
// meets the curve, and answers every query with a scan down that row. A row
// returns exactly what a fresh PredictTwoStep comparison would at any
// ambient, so the search has nothing to invalidate — not at a completion, a
// migration, a fault or a snapshot restore — and a recycled job allocation
// cannot alias a stale row.
//
// A LadderSearch belongs to one simulation and one goroutine.
type LadderSearch struct {
	// classOf[i] indexes classes, the distinct (sink, leakage) pairs of the
	// server's sockets.
	classOf []int32
	classes []ladderClass
	// curves lists every power curve met so far; last[i] is the curve of
	// socket i's last Index call (nil before it), which IndexBelow reads.
	curves []*LadderCurve
	last   []*LadderCurve
}

type ladderClass struct {
	sink chipmodel.Sink
	leak chipmodel.Leakage
}

// LadderCurve is one power curve's admissibility rows, one per class.
type LadderCurve struct {
	dm      units.Watts
	classOf []int32
	rows    []chipmodel.AdmissRow
}

// NewLadderSearch builds the search for srv's sockets with the per-socket
// leakage models leak, which must stay fixed for the life of the search.
func NewLadderSearch(srv *geometry.Server, leak []chipmodel.Leakage) *LadderSearch {
	ls := &LadderSearch{
		classOf: make([]int32, len(leak)),
		last:    make([]*LadderCurve, len(leak)),
	}
	for i := range leak {
		c := ladderClass{srv.Sink(geometry.SocketID(i)), leak[i]}
		k := 0
		for k < len(ls.classes) && ls.classes[k] != c {
			k++
		}
		if k == len(ls.classes) {
			ls.classes = append(ls.classes, c)
		}
		ls.classOf[i] = int32(k)
	}
	return ls
}

// Curve returns the rows of bm's power curve (dm is its DynMax), seeding
// them on first sight. A run meets a handful of curves, one per benchmark
// of its mix, so the lookup is a short scan.
func (ls *LadderSearch) Curve(bm *workload.Benchmark, dm units.Watts) *LadderCurve {
	for _, c := range ls.curves {
		if c.dm == dm {
			return c
		}
	}
	c := &LadderCurve{dm: dm, classOf: ls.classOf, rows: make([]chipmodel.AdmissRow, len(ls.classes))}
	dyn := func(f units.MHz) units.Watts { return bm.DynamicPowerAt(f) }
	for k, cl := range ls.classes {
		c.rows[k] = chipmodel.NewAdmissRow(dyn, cl.sink, cl.leak)
	}
	ls.curves = append(ls.curves, c)
	return c
}

// Index returns the uncapped ladder index of bm (whose DynMax is dm,
// hoisted by callers that loop over sockets) on socket id at ambient amb,
// and records bm's curve as the socket's last, which IndexBelow reads.
func (ls *LadderSearch) Index(id geometry.SocketID, bm *workload.Benchmark, dm units.Watts, amb units.Celsius) int {
	c := ls.last[id]
	if c == nil || c.dm != dm {
		c = ls.Curve(bm, dm)
		ls.last[id] = c
	}
	return c.Index(id, amb)
}

// Index returns the curve's uncapped ladder index on socket id at ambient
// amb.
func (c *LadderCurve) Index(id geometry.SocketID, amb units.Celsius) int {
	return c.rows[c.classOf[id]].Index(len(chipmodel.Frequencies)-1, amb)
}

// IndexBelow returns the highest index at or below top that is admissible
// at ambient amb for the power curve of socket id's last Index call: CP's
// prediction of a downwind socket after a candidate's heat has raised its
// ambient, with top the index before the rise.
func (ls *LadderSearch) IndexBelow(id geometry.SocketID, top int, amb units.Celsius) int {
	return ls.last[id].rows[ls.classOf[id]].Index(top, amb)
}

// LadderFreq maps a ladder index to its frequency, the ladder floor for -1
// (the chip cannot stop, it only throttles).
func LadderFreq(k int) units.MHz {
	if k < 0 {
		return chipmodel.FMin
	}
	return chipmodel.Frequencies[k]
}
