package sched

import (
	"math"

	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/units"
	"densim/internal/workload"
)

// ladderSearch is the own-frequency search Predictive and CP share: for a
// job's benchmark on a candidate socket at the socket's current ambient, the
// highest P-state index whose two-step predicted chip temperature stays
// within the limit — the uncapped ladder index behind
// chipmodel.PredictFrequency, -1 when no P-state is admissible.
//
// The index is a pure function of (ambient bits, the benchmark's power
// curve, the socket's sink, the socket's leakage model). The last two are
// fixed per socket for the lifetime of a simulation, and the power curve is
// determined by its single scalar DynMax (see workload.Benchmark.DynMax), so
// a per-socket memo keyed by (ambient bits, DynMax bits) replays exactly.
// Keying by value rather than by epoch keeps it valid across every Pick of a
// tick and across ticks once a lane settles, and a job change re-keys via
// DynMax. On a miss the search probes through the admissibility cache, whose
// every verdict equals a fresh PredictTwoStep comparison (see
// chipmodel.AdmissCache); CP's downwind predictions probe the same cache.
//
// A ladderSearch belongs to one simulation: its memo assumes the sinks and
// leakage curves of the first State it saw.
type ladderSearch struct {
	admiss *chipmodel.AdmissCache
	idx    []int8
	amb    []units.Celsius
	dynMax []units.Watts
}

// ensure sizes the search for v's sockets on first use. The admissibility
// cache's shared bounds pool — essential at high load, where job churn
// resets per-socket bounds every few ticks — keys bounds by dynamic power
// and sink alone, which is sound only when every socket carries the same
// leakage curve; heterogeneous SKUs keep per-socket bounds.
func (ls *ladderSearch) ensure(v *StateVectors) {
	n := len(v.Amb)
	if len(ls.idx) >= n {
		return
	}
	ls.admiss = chipmodel.NewAdmissCache(n)
	shared := true
	for _, l := range v.Leak[1:] {
		if l != v.Leak[0] {
			shared = false
			break
		}
	}
	if shared {
		ls.admiss.EnableSharedPool()
	}
	ls.idx = make([]int8, n)
	ls.amb = make([]units.Celsius, n)
	ls.dynMax = make([]units.Watts, n)
	nan := units.Celsius(math.NaN())
	for i := range ls.amb {
		ls.amb[i] = nan
	}
}

// index returns the uncapped ladder index of bm (whose DynMax is dm, hoisted
// by the caller out of its candidate loop) on socket id (whose sink is
// sink): replayed when the socket's ambient and dm are bit-equal to the last
// search's, found by the bounds-backed ladder search otherwise. A miss at
// the same dm starts from the last index — usually still the answer, since
// ambients move a fraction of a degree per tick — and
// HighestAdmissibleFrom returns exactly what the cold search would.
func (ls *ladderSearch) index(v *StateVectors, bm *workload.Benchmark, dm units.Watts, id geometry.SocketID, sink chipmodel.Sink) int {
	i := int(id)
	amb := v.Amb[i]
	if ls.amb[i] == amb && ls.dynMax[i] == dm {
		return int(ls.idx[i])
	}
	hint := -1
	if ls.dynMax[i] == dm {
		hint = int(ls.idx[i])
	}
	leak := v.Leak[i]
	lad, thr := ls.admiss.LadderBounds(dm, func(k int) units.Watts {
		return bm.DynamicPowerAt(chipmodel.Frequencies[k])
	}, sink, leak)
	k := chipmodel.HighestAdmissibleFrom(hint, len(chipmodel.Frequencies)-1, func(k int) bool {
		return ls.admiss.AdmissibleRow(thr, i, k, amb, lad[k], sink, leak)
	})
	ls.amb[i], ls.dynMax[i], ls.idx[i] = amb, dm, int8(k)
	return k
}

// ladderFreq maps a ladder index to its frequency, the ladder floor for -1
// (the chip cannot stop, it only throttles).
func ladderFreq(k int) units.MHz {
	if k < 0 {
		return chipmodel.FMin
	}
	return chipmodel.Frequencies[k]
}
