package sched

import (
	"math"

	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/job"
	"densim/internal/units"
	"densim/internal/workload"
)

// CouplingPredictor (CP) is the paper's proposed scheduler (Section IV-C).
// It extends Predictive with inter-socket thermal coupling: for each
// candidate socket it predicts both the frequency the new job would achieve
// there and the frequency each downwind socket would *lose* from the added
// heat, then places the job where the net system-wide frequency benefit is
// highest.
//
// Mechanics, mirroring the paper: when jobs are pending, the scheduler first
// picks a row of cartridges with idle sockets at random and evaluates
// candidates within that row. For each idle socket in the row it
//
//  1. assumes the job is scheduled there, estimates an initial chip
//     temperature with Equation 1, compensates power for
//     temperature-dependent leakage, and re-predicts — yielding the highest
//     frequency that keeps the estimate under the 95C limit;
//  2. uses the airflow coupling table to estimate how much the candidate's
//     added power raises each downwind socket's ambient temperature, and
//     (assuming the downwind sockets keep running their current jobs)
//     predicts each one's frequency before and after;
//  3. scores the candidate as its own predicted frequency minus the summed
//     downwind frequency losses.
//
// The scheduler is deliberately simple — a linear coupling model and a table
// lookup, not the full CFD-class model used to evaluate it.
// A CouplingPredictor is not safe for concurrent use: it carries a row-pick
// RNG and reusable per-Pick scratch buffers. Give each concurrent simulation
// its own instance (sched.ByName constructs fresh ones).
type CouplingPredictor struct {
	rng  rng
	opts CPOptions
	// rowOf[id] is the socket's cartridge row. geometry.New numbers sockets
	// row-major, so rowOf never decreases in socket ID and each row's idle
	// sockets form one contiguous run of the sorted idle slice. rowStart is
	// per-Pick scratch: rowStart[k] is the index in idle where the k-th row
	// with idle sockets begins, with a final sentinel at len(idle).
	rowOf    []int32
	rowStart []int32
	// ownTemp* replay the leakage drawn at the candidate's predicted chip
	// temperature when the (ambient, dynamic power) inputs are bit-unchanged:
	// a pure-function memo, exact by replay.
	ownTempAmb   []units.Celsius
	ownTempDynW  []units.Watts
	ownTempLeakW []units.Watts
	// vec and srv are the state and server the memo was filled from.
	vec *StateVectors
	srv *geometry.Server
}

// CPOptions selects CP design-point ablations. The zero value is the full
// proposed scheduler; each flag removes one ingredient so its contribution
// can be measured (see the CP ablation experiment).
type CPOptions struct {
	// GlobalSearch evaluates every idle socket instead of the paper's
	// random-row restriction.
	GlobalSearch bool
	// IdleWeighted extends the downwind loss term to currently idle
	// sockets, weighted by system utilization (they will soon carry jobs).
	// The paper's literal description — and the default — counts only busy
	// downwind sockets; the ablation study shows the extension does not pay
	// for itself under the tiered boost budget.
	IdleWeighted bool
	// IgnoreBudget makes predictions ignore the boost budget.
	IgnoreBudget bool
	// NoCoupling drops the downwind loss term entirely, reducing CP to a
	// row-restricted Predictive — the ablation that isolates the paper's
	// core contribution.
	NoCoupling bool
}

// NewCouplingPredictor builds the full CP with a deterministic seed for its
// row selection.
func NewCouplingPredictor(seed uint64) *CouplingPredictor {
	return NewCouplingPredictorOpts(seed, CPOptions{})
}

// NewCouplingPredictorOpts builds a CP ablation variant.
func NewCouplingPredictorOpts(seed uint64, opts CPOptions) *CouplingPredictor {
	return &CouplingPredictor{rng: newRNG(seed), opts: opts}
}

// Name implements Scheduler.
func (cp *CouplingPredictor) Name() string {
	switch {
	case cp.opts.NoCoupling:
		return "CP-nocoupling"
	case cp.opts.GlobalSearch:
		return "CP-global"
	case cp.opts.IdleWeighted:
		return "CP-idleweighted"
	case cp.opts.IgnoreBudget:
		return "CP-nobudget"
	default:
		return "CP"
	}
}

// Pick implements Scheduler.
func (cp *CouplingPredictor) Pick(s State, j *job.Job, idle []geometry.SocketID) geometry.SocketID {
	srv := s.Server()
	if v := s.Vectors(); v != cp.vec {
		cp.reset(s, v)
	}

	cands := idle
	if !cp.opts.GlobalSearch {
		cp.rowStart = cp.rowStart[:0]
		cur := int32(-1)
		for k, id := range idle {
			if r := cp.rowOf[id]; r != cur {
				cur = r
				cp.rowStart = append(cp.rowStart, int32(k))
			}
		}
		k := cp.rng.Intn(len(cp.rowStart))
		cp.rowStart = append(cp.rowStart, int32(len(idle)))
		cands = idle[cp.rowStart[k]:cp.rowStart[k+1]]
	}
	// One candidate needs no scoring: score's only writes are pure
	// value-keyed memo caches, so skipping it cannot change any later pick.
	if len(cands) == 1 {
		return cands[0]
	}

	// System utilization estimate: the weight given to downwind sockets
	// that are idle right now but will soon carry work (zero unless the
	// IdleWeighted ablation variant is selected).
	util := 0.0
	if cp.opts.IdleWeighted {
		util = 1 - float64(len(idle))/float64(srv.NumSockets())
	}

	bm := &j.Benchmark
	dm := bm.DynMax()
	best := cands[0]
	bestScore := cp.score(s, bm, dm, best, util)
	for _, id := range cands[1:] {
		if sc := cp.score(s, bm, dm, id, util); sc > bestScore || (sc == bestScore && id < best) {
			best, bestScore = id, sc
		}
	}
	return best
}

// reset binds the leakage memo to a new simulation's state, whose sockets
// may carry other leakage curves, so every entry is forgotten; the
// per-server layout is rebuilt for a new server.
func (cp *CouplingPredictor) reset(s State, v *StateVectors) {
	srv := s.Server()
	n := srv.NumSockets()
	if srv != cp.srv {
		cp.ownTempAmb = make([]units.Celsius, n)
		cp.ownTempDynW = make([]units.Watts, n)
		cp.ownTempLeakW = make([]units.Watts, n)
		cp.rowOf = make([]int32, n)
		for i := 0; i < n; i++ {
			cp.rowOf[i] = int32(srv.Socket(geometry.SocketID(i)).Row)
		}
		cp.srv = srv
	}
	nan := math.NaN()
	for i := 0; i < n; i++ {
		cp.ownTempAmb[i] = units.Celsius(nan)
	}
	cp.vec = v
}

// score returns the candidate's net predicted frequency benefit in MHz.
// util weights the losses predicted for currently-idle downwind sockets.
// bm is the job's benchmark and dm its DynMax; its dynamic-power curve is
// wrapped in a func literal here rather than via Benchmark.DynamicPower,
// whose returned method value heap-allocates on every call.
func (cp *CouplingPredictor) score(s State, bm *workload.Benchmark, dm units.Watts, cand geometry.SocketID, util float64) float64 {
	srv := s.Server()
	af := s.Airflow()
	leak := cp.vec.Leak[cand]
	dyn := func(f units.MHz) units.Watts { return bm.DynamicPowerAt(f) }
	ladder := cp.vec.Ladder

	// Own predicted frequency at the candidate's current ambient (the
	// simulation's ladder search), capped by the candidate's boost budget.
	candAmb := cp.vec.Amb[cand]
	candSink := srv.Sink(cand)
	ci := int(cand)
	ownFreq := LadderFreq(ladder.Index(cand, bm, dm, candAmb))
	if !cp.opts.IgnoreBudget && ownFreq > cp.vec.Cap[cand] {
		ownFreq = cp.vec.Cap[cand]
	}
	if cp.opts.NoCoupling {
		return float64(ownFreq)
	}

	// The heat the candidate would inject into the airstream: its dynamic
	// power at the predicted frequency plus the leakage at the predicted
	// temperature, minus the gated power it injects today while idle. The
	// prediction replays from the per-socket memo when (ambient, dynamic
	// power) are bit-unchanged — across candidates of one tick, and across
	// ticks once the lane has settled.
	ownDyn := dyn(ownFreq)
	var ownLeak units.Watts
	if cp.ownTempAmb[ci] == candAmb && cp.ownTempDynW[ci] == ownDyn {
		ownLeak = cp.ownTempLeakW[ci]
	} else {
		ownTemp := chipmodel.PredictTwoStep(candAmb, ownDyn, candSink, leak)
		ownLeak = leak.At(ownTemp)
		cp.ownTempAmb[ci] = candAmb
		cp.ownTempDynW[ci] = ownDyn
		cp.ownTempLeakW[ci] = ownLeak
	}
	added := float64(ownDyn) + float64(ownLeak) -
		chipmodel.GatedPowerFrac*float64(leak.TDP)
	if added < 0 {
		added = 0
	}

	// Downwind impact: predicted frequency loss of each downstream socket,
	// from the precomputed downwind coupling view. Sockets running a job are
	// assumed to keep running it; idle sockets count at the utilization
	// weight (they will soon carry jobs like the one being placed); dead
	// sockets, Busy with no job, never count.
	var lossMHz float64
	for _, dw := range af.Downwind(cand) {
		down := dw.Down
		rise := units.Celsius(dw.C * added)
		if rise <= 0 {
			continue
		}
		var weight float64
		var dbm *workload.Benchmark
		running := cp.vec.Job[down]
		if running != nil {
			weight, dbm = 1, &running.Benchmark
		} else if util > 0 && !s.Busy(down) {
			weight, dbm = util, bm
		} else {
			continue
		}
		// The pre-rise prediction is the raw index; the budget clamp below
		// stays per-use.
		amb := cp.vec.Amb[down]
		bIdx := ladder.Index(down, dbm, dbm.DynMax(), amb)
		before := LadderFreq(bIdx)
		// The post-rise search scans the same row down from the pre-rise
		// index: the predicate is monotone non-increasing in ambient
		// (PredictTwoStep adds the ambient term and everything downstream of
		// it — the leakage exponential, the second peak estimate — is
		// non-decreasing in it, in float arithmetic too since each step is a
		// composition of monotone operations), so an index inadmissible at
		// amb stays inadmissible at the hotter amb+rise. Confirming bIdx
		// costs one probe; rise only heats, so the answer is bIdx or below.
		aIdx := ladder.IndexBelow(down, bIdx, amb+rise)
		after := LadderFreq(aIdx)
		if !cp.opts.IgnoreBudget {
			// Losses above the downwind socket's budget cap do not count:
			// it could not have run there anyway.
			if cap := cp.vec.Cap[down]; before > cap {
				before = cap
				if after > cap {
					after = cap
				}
			}
		}
		lossMHz += weight * float64(before-after)
	}
	return float64(ownFreq) - lossMHz
}
