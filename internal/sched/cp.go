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
	// per-Pick scratch of Rows+1 entries: rowStart[k] is the index in idle
	// where the k-th row with idle sockets begins, with a final sentinel at
	// len(idle).
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
	cp.bind(s)

	cands := idle
	if !cp.opts.GlobalSearch {
		// Every step writes its index to rs[n] and a row change advances
		// n, so rs[:n] ends up holding each row's first index: no append
		// and no branch on the row test.
		rs := cp.rowStart
		n := 0
		cur := int32(-1)
		for k, id := range idle {
			r := cp.rowOf[id]
			rs[n] = int32(k)
			n += b2i(r != cur)
			cur = r
		}
		k := cp.rng.Intn(n)
		rs[n] = int32(len(idle))
		cands = idle[rs[k]:rs[k+1]]
	}
	// One candidate needs no scoring: score's only writes are pure
	// value-keyed memo caches, so skipping it cannot change any later pick.
	if len(cands) == 1 {
		return cands[0]
	}

	util := cp.util(s, len(idle))
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

// Score returns the score Pick ranks candidate cand by when it places j
// with nIdle sockets idle: the net predicted frequency benefit in MHz, the
// candidate's own predicted frequency minus the frequency its heat takes
// from downwind sockets. It writes only the memos Pick writes, so calling
// it between picks changes no pick.
func (cp *CouplingPredictor) Score(s State, j *job.Job, cand geometry.SocketID, nIdle int) float64 {
	cp.bind(s)
	bm := &j.Benchmark
	return cp.score(s, bm, bm.DynMax(), cand, cp.util(s, nIdle))
}

// util is the system utilization estimate with nIdle sockets idle: the
// weight given to downwind sockets that are idle right now but will soon
// carry work (zero unless the IdleWeighted ablation variant is selected).
func (cp *CouplingPredictor) util(s State, nIdle int) float64 {
	if !cp.opts.IdleWeighted {
		return 0
	}
	return 1 - float64(nIdle)/float64(s.Server().NumSockets())
}

// bind binds the memos to s's state vectors (see reset).
func (cp *CouplingPredictor) bind(s State) {
	if v := s.Vectors(); v != cp.vec {
		cp.reset(s, v)
	}
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
		cp.rowStart = make([]int32, srv.Rows+1)
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
// bm is the job's benchmark and dm its DynMax.
//
// The heat the candidate would inject, added, needs its own leakage at its
// predicted chip temperature: a two-step prediction and two math.Exp. Most
// downwind sockets sit far enough from a P-state boundary that no heat the
// candidate could inject moves them, so each is first checked at the upper
// bound addedHi, which takes the leakage at its clamp, leak.Max(). The
// bound decides the loss exactly:
//
//   - Leakage.At clamps at Max, so ownLeak <= leak.Max() and, as the two
//     share every other term, added <= addedHi before added's clamp at 0.
//   - Float +, - and multiplication by C > 0 each round monotonically, so
//     amb + C*added <= amb + C*addedHi.
//   - Admissibility is monotone in ambient — the assumption IndexBelow
//     already rests on — so if the pre-rise index bIdx is still admissible
//     at amb + C*addedHi, it is at amb + C*added: the socket loses nothing.
//   - A downwind socket with C <= 0 loses nothing either way: added >= 0,
//     so the exact rise is at most 0 and the post-rise search returns
//     bIdx. Nor does one with bIdx < 0, which has no index to lose. Whether
//     the bound skips such a socket or probes it, its loss is zero.
//
// Only when the bound leaves bIdx inadmissible is the exact added computed,
// once per call, and the post-rise index searched at amb + C*added; the
// sockets after it skip the bound and are searched at their exact rise
// directly. Either way the score is bit-identical to computing added up
// front.
func (cp *CouplingPredictor) score(s State, bm *workload.Benchmark, dm units.Watts, cand geometry.SocketID, util float64) float64 {
	leak := cp.vec.Leak[cand]
	ladder := cp.vec.Ladder

	// Own predicted frequency at the candidate's current ambient (the
	// simulation's ladder search), capped by the candidate's boost budget.
	candAmb := cp.vec.Amb[cand]
	ownFreq := LadderFreq(ladder.Index(cand, bm, dm, candAmb))
	if !cp.opts.IgnoreBudget && ownFreq > cp.vec.Cap[cand] {
		ownFreq = cp.vec.Cap[cand]
	}
	if cp.opts.NoCoupling {
		return float64(ownFreq)
	}

	// The heat the candidate would inject into the airstream: its dynamic
	// power at the predicted frequency plus the leakage at the predicted
	// temperature, minus the gated power it injects today while idle.
	// addedHi bounds it with the leakage clamp in place of the leakage.
	ownDyn := bm.DynamicPowerAt(ownFreq)
	addedHi := float64(ownDyn) + float64(leak.Max()) -
		chipmodel.GatedPowerFrac*float64(leak.TDP)
	var added float64
	exact := false

	// Downwind impact: predicted frequency loss of each downstream socket,
	// from the precomputed downwind coupling view. Sockets running a job are
	// assumed to keep running it; idle sockets count at the utilization
	// weight (they will soon carry jobs like the one being placed); dead
	// sockets, Busy with no job, never count.
	var lossMHz float64
	for _, dw := range s.Airflow().Downwind(cand) {
		down := dw.Down
		riseHi := units.Celsius(dw.C * addedHi)
		if riseHi <= 0 {
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
		// The post-rise search scans the same row down from the pre-rise
		// index: the predicate is monotone non-increasing in ambient
		// (PredictTwoStep adds the ambient term and everything downstream of
		// it — the leakage exponential, the second peak estimate — is
		// non-decreasing in it, in float arithmetic too since each step is a
		// composition of monotone operations), so an index inadmissible at
		// amb stays inadmissible at the hotter amb+rise. Confirming bIdx
		// costs one probe; rise only heats, so the answer is bIdx or below.
		// Until the exact heat is known, the search runs first at the
		// bound's rise, where keeping bIdx proves the loss zero, and at the
		// exact rise only otherwise.
		if !exact {
			if ladder.IndexBelow(down, bIdx, amb+riseHi) == bIdx {
				continue
			}
			// The prediction replays from the per-socket memo when
			// (ambient, dynamic power) are bit-unchanged — across
			// candidates of one tick, and across ticks once the lane has
			// settled.
			ci := int(cand)
			var ownLeak units.Watts
			if cp.ownTempAmb[ci] == candAmb && cp.ownTempDynW[ci] == ownDyn {
				ownLeak = cp.ownTempLeakW[ci]
			} else {
				ownTemp := chipmodel.PredictTwoStep(candAmb, ownDyn, s.Server().Sink(cand), leak)
				ownLeak = leak.At(ownTemp)
				cp.ownTempAmb[ci] = candAmb
				cp.ownTempDynW[ci] = ownDyn
				cp.ownTempLeakW[ci] = ownLeak
			}
			added = float64(ownDyn) + float64(ownLeak) -
				chipmodel.GatedPowerFrac*float64(leak.TDP)
			if added < 0 {
				added = 0
			}
			exact = true
		}
		aIdx := ladder.IndexBelow(down, bIdx, amb+units.Celsius(dw.C*added))
		before, after := LadderFreq(bIdx), LadderFreq(aIdx)
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

// b2i is 1 for true and 0 for false; the compiler emits it as a flag set,
// not a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}
