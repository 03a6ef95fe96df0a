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
	// Per-Pick scratch, reused to keep the placement path allocation-free:
	// rowIdle[row] collects the idle sockets of one cartridge row, rows
	// lists the rows that have any.
	rowIdle [][]geometry.SocketID
	rows    []int
	// rowOf[id] is the socket's cartridge row, precomputed so the per-Pick
	// binning avoids copying a geometry.Socket per idle socket.
	rowOf []int32
	// rowsMono records that rowOf is non-decreasing in socket ID (true for
	// the standard channel-major layout). Then each row's idle sockets form
	// one contiguous run of the sorted idle slice, and the per-Pick binning
	// reduces to boundary detection: rowStart[k] is the index in idle where
	// rows[k]'s run begins (with a final sentinel at len(idle)), and a row's
	// candidate list is a subslice — no per-socket appends. Rows are
	// discovered in ascending ID order either way, so the rows list, the
	// row-RNG draw, and each bin's contents are identical to the append
	// binning below.
	rowsMono bool
	rowStart []int32
	// ownTemp* replay the leakage drawn at the candidate's predicted chip
	// temperature when the (ambient, dynamic power) inputs are bit-unchanged:
	// a pure-function memo, exact by replay.
	ownTempAmb   []units.Celsius
	ownTempDynW  []units.Watts
	ownTempLeakW []units.Watts
	// Whole-score memo, off only under the IdleWeighted ablation (its
	// utilization weight is a global that no lane epoch covers). A
	// candidate's score reads only its own channel: its own ambient/boost
	// cap, and the running jobs, ambients, and boost caps of its downwind
	// sockets, which the advection model keeps strictly within one channel.
	// So the memo key is (channel epoch, job DynMax): both unchanged proves
	// every score input bit-identical, and the replayed float is the exact
	// value a fresh evaluation would produce. chanOf[id] is the socket's
	// channel index.
	chanOf      []int32
	scoreEpoch  []uint64
	scoreDynMax []units.Watts
	scoreVal    []float64
	// vec and srv are the state and server the memos were filled from.
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
		if cp.rowsMono {
			// Fast binning: rows are contiguous runs of the sorted idle
			// slice, so one boundary-detection pass replaces per-socket
			// appends. Runs are found in ascending ID (= ascending first
			// occurrence) order, matching the append binning's rows list.
			cp.rows = cp.rows[:0]
			cp.rowStart = cp.rowStart[:0]
			cur := int32(-1)
			for k, id := range idle {
				if r := cp.rowOf[id]; r != cur {
					cur = r
					cp.rows = append(cp.rows, int(r))
					cp.rowStart = append(cp.rowStart, int32(k))
				}
			}
			cp.rowStart = append(cp.rowStart, int32(len(idle)))
			k := cp.rng.Intn(len(cp.rows))
			cands = idle[cp.rowStart[k]:cp.rowStart[k+1]]
		} else {
			// Rows that currently have idle sockets, binned into the
			// reusable scratch (idle is sorted by ID, so each row's bin
			// stays in ID order, matching the append order of the old
			// map-based binning).
			if len(cp.rowIdle) < srv.Rows {
				cp.rowIdle = make([][]geometry.SocketID, srv.Rows)
			}
			// Clear the bins the previous Pick touched (keeps capacity).
			for _, r := range cp.rows {
				cp.rowIdle[r] = cp.rowIdle[r][:0]
			}
			cp.rows = cp.rows[:0]
			for _, id := range idle {
				row := int(cp.rowOf[id])
				if len(cp.rowIdle[row]) == 0 {
					cp.rows = append(cp.rows, row)
				}
				cp.rowIdle[row] = append(cp.rowIdle[row], id)
			}
			row := cp.rows[cp.rng.Intn(len(cp.rows))]
			cands = cp.rowIdle[row]
		}
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
	best := cands[0]
	bestScore := cp.scoreCached(s, bm, best, util)
	for _, id := range cands[1:] {
		if sc := cp.scoreCached(s, bm, id, util); sc > bestScore || (sc == bestScore && id < best) {
			best, bestScore = id, sc
		}
	}
	return best
}

// reset binds the memos to a new simulation's state. Its epochs restart
// and its sockets may carry other sinks and leakage curves, so every memo
// entry is forgotten; the per-server layout is rebuilt for a new server.
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
		cp.rowsMono = true
		for i := 1; i < n; i++ {
			if cp.rowOf[i] < cp.rowOf[i-1] {
				cp.rowsMono = false
				break
			}
		}
		cp.chanOf = make([]int32, n)
		af := s.Airflow()
		for ch := 0; ch < af.NumChannels(); ch++ {
			for _, id := range af.Channel(ch) {
				cp.chanOf[id] = int32(ch)
			}
		}
		cp.scoreEpoch = make([]uint64, n)
		cp.scoreDynMax = make([]units.Watts, n)
		cp.scoreVal = make([]float64, n)
		cp.rowIdle, cp.rows = nil, nil
		cp.srv = srv
	}
	nan := math.NaN()
	for i := 0; i < n; i++ {
		cp.ownTempAmb[i] = units.Celsius(nan)
		cp.scoreDynMax[i] = units.Watts(nan)
	}
	cp.vec = v
}

// scoreCached replays the whole-score memo when the candidate's channel
// epoch and the job's DynMax both match (see the memo's field comment for
// the exactness argument), and falls back to a fresh score otherwise. Under
// the IdleWeighted ablation every call is fresh.
func (cp *CouplingPredictor) scoreCached(s State, bm *workload.Benchmark, cand geometry.SocketID, util float64) float64 {
	if cp.opts.IdleWeighted {
		return cp.score(s, bm, bm.DynMax(), cand, util)
	}
	ci := int(cand)
	e := cp.vec.Epoch[cp.chanOf[ci]]
	dm := bm.DynMax()
	if cp.scoreEpoch[ci] == e && cp.scoreDynMax[ci] == dm {
		return cp.scoreVal[ci]
	}
	v := cp.score(s, bm, dm, cand, util)
	cp.scoreEpoch[ci] = e
	cp.scoreDynMax[ci] = dm
	cp.scoreVal[ci] = v
	return v
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
	// simulation's memoized search), capped by the candidate's boost budget.
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
		// The pre-rise prediction is candidate-independent, and for a busy
		// socket it is the memo entry the power manager's last pick left
		// (the raw index — the budget clamp below stays per-use).
		amb := cp.vec.Amb[down]
		bIdx := ladder.Index(down, dbm, dbm.DynMax(), amb)
		before := LadderFreq(bIdx)
		// The post-rise search starts at the pre-rise index on the memo's
		// ladder row and is capped there: the predicate is monotone
		// non-increasing in ambient (PredictTwoStep adds the ambient term and
		// everything downstream of it — the leakage exponential, the second
		// peak estimate — is non-decreasing in it, in float arithmetic too
		// since each step is a composition of monotone operations), so an
		// index inadmissible at amb stays inadmissible at the hotter
		// amb+rise. Confirming bIdx costs one probe; rise only heats, so the
		// answer is bIdx or below.
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
