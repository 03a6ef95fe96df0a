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
// The index is a pure function of (ambient, the benchmark, the socket's
// sink, the socket's leakage model). The last two are fixed per socket for
// the lifetime of a simulation and take a handful of values (a class). So
// the search resolves each benchmark the run meets once into a LadderCurve,
// interned by benchmark value, which holds the benchmark's per-P-state
// power and performance and one seeded chipmodel.AdmissRow per class, and
// answers every query with a scan down a row. A row returns exactly what a
// fresh PredictTwoStep comparison would at any ambient, so the search has
// nothing to invalidate — not at a completion, a migration, a fault or a
// snapshot restore — and a recycled job allocation cannot alias a stale
// row.
//
// A LadderSearch belongs to one simulation and one goroutine.
type LadderSearch struct {
	// classOf[i] indexes classes, the distinct (sink, leakage) pairs of the
	// server's sockets.
	classOf []int32
	classes []ladderClass
	// curves lists every benchmark met so far.
	curves []*LadderCurve
}

type ladderClass struct {
	sink chipmodel.Sink
	leak chipmodel.Leakage
}

// LadderCurve is one benchmark resolved against the P-state ladder: per
// index k its DynamicPowerAt and RelPerf at chipmodel.Frequencies[k], and
// its admissibility rows, one per class. It is the only carrier of a
// running job's power and performance constants, read-only once built.
type LadderCurve struct {
	bm      workload.Benchmark
	dyn     []units.Watts
	perf    []float64
	classOf []int32
	rows    []chipmodel.AdmissRow
}

// NewLadderSearch builds the search for srv's sockets with the per-socket
// leakage models leak, which must stay fixed for the life of the search.
func NewLadderSearch(srv *geometry.Server, leak []chipmodel.Leakage) *LadderSearch {
	ls := &LadderSearch{classOf: make([]int32, len(leak))}
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

// Curve returns bm's curve, resolving and seeding it on first sight. A run
// meets a handful of benchmarks, one per entry of its mix, so the lookup is
// a short scan.
func (ls *LadderSearch) Curve(bm *workload.Benchmark) *LadderCurve {
	for _, c := range ls.curves {
		// The power compare turns most other benchmarks away cheaply.
		if c.bm.PowerAt90C == bm.PowerAt90C && c.bm == *bm {
			return c
		}
	}
	n := len(chipmodel.Frequencies)
	c := &LadderCurve{bm: *bm, dyn: make([]units.Watts, n), perf: make([]float64, n),
		classOf: ls.classOf, rows: make([]chipmodel.AdmissRow, len(ls.classes))}
	for k, f := range chipmodel.Frequencies {
		c.dyn[k] = bm.DynamicPowerAt(f)
		c.perf[k] = bm.RelPerf(f)
	}
	for k, cl := range ls.classes {
		c.rows[k] = chipmodel.NewAdmissRow(c.dyn, cl.sink, cl.leak)
	}
	ls.curves = append(ls.curves, c)
	return c
}

// Dyn returns the curve's dynamic power at P-state k.
func (c *LadderCurve) Dyn(k int) units.Watts { return c.dyn[k] }

// Perf returns the curve's performance at P-state k relative to FMax: the
// seconds of work a second of wall time retires.
func (c *LadderCurve) Perf(k int) float64 { return c.perf[k] }

// Index returns the curve's uncapped ladder index on socket id at ambient
// amb.
func (c *LadderCurve) Index(id geometry.SocketID, amb units.Celsius) int {
	return c.rows[c.classOf[id]].Index(len(chipmodel.Frequencies)-1, amb)
}

// IndexBelow returns the highest index at or below top that is admissible
// for the curve on socket id at ambient amb: CP's prediction of a downwind
// socket after a candidate's heat has raised its ambient, with top the
// index before the rise.
func (c *LadderCurve) IndexBelow(id geometry.SocketID, top int, amb units.Celsius) int {
	return c.rows[c.classOf[id]].Index(top, amb)
}

// LadderFreq maps a ladder index to its frequency, the ladder floor for -1
// (the chip cannot stop, it only throttles).
func LadderFreq(k int) units.MHz {
	if k < 0 {
		return chipmodel.FMin
	}
	return chipmodel.Frequencies[k]
}
