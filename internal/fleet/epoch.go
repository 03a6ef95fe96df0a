package fleet

// The closed-loop epoch executor: the step/observe/act control seam. Instead
// of routing the whole stream in one window over estimated chassis state (the
// open-loop pipeline in fleet.go), the fleet advances in tick-aligned epochs:
//
//	observe -> dispatch window k -> RunTo(boundary k+1) -> observe -> ...
//
// Each boundary, every chassis reports its true state (queue depth, busy and
// dead sockets, settled ambient headroom) through sim.Observe, the dispatcher
// routes the next window's arrivals over those observations, and the window
// is appended to each chassis's appendSource before any chassis simulates
// past the boundary. Windows are drawn from the arrival process by the same
// feed.route pass the open loop uses, and each appendSource rewinds once its
// window is consumed, so a chassis holds at most one epoch of arrivals.
// Dispatch and observation are serial fences; only the RunTo steps between
// them shard across the worker pool — so the feedback loop is closed yet the
// result stays a pure function of (scenario, seed, epoch period),
// independent of worker count.
//
// Epoch boundaries are computed by replaying the simulator's own clock
// arithmetic: the sim accumulates now += tick, so boundary k is the
// (k * ticksPerEpoch)-fold accumulation of the resolved tick period — not
// epoch * k, which differs from the accumulated clock by ~1 ulp. The
// distinction is load-bearing: with a multiplied boundary, RunTo overruns it
// by a fraction of a tick, and an arrival landing inside that overrun gap is
// admitted one window late closed-loop but on time open-loop — breaking the
// closed-RR ≡ open-RR bit-equivalence oracle. With accumulated boundaries,
// RunTo stops exactly (bit-equal now) at each boundary and the window
// condition at < boundary is precisely the simulator's own admission
// horizon.
//
// The executor also carries a shadow of the open-loop estimator: the same
// nominal-duration completion heap the pipeline dispatches over, retired at
// each boundary and compared against the observed in-flight depth. The
// accumulated divergence (ChassisResult.EstErr, telemetry dispatch_est_err)
// quantifies exactly how wrong open-loop dispatch's picture of the fleet was
// — the number that motivates closing the loop.

import (
	"fmt"
	"math"

	"densim/internal/check"
	"densim/internal/sim"
	"densim/internal/telemetry"
	"densim/internal/units"
	"densim/internal/workload"
)

// chassisRunner is one chassis's live simulation held open across epochs —
// the closed-loop counterpart of runChassis, split so the executor can
// interleave RunTo steps with source appends and observations.
type chassisRunner struct {
	sim     *sim.Simulator
	src     *appendSource
	checks  *check.Checks
	tel     *telemetry.Telemetry
	faulted bool
}

// newRunner builds chassis i's live simulator over an (initially empty)
// append source, mirroring runChassis's config assembly. Closed-loop runs
// never warm-start, so there is no WarmDir path here.
func (f *Fleet) newRunner(i int, benches []workload.Benchmark) (*chassisRunner, error) {
	ch := &f.chassis[i]
	cfg, err := ch.Scenario.Config(f.seed)
	if err != nil {
		return nil, err
	}
	r := &chassisRunner{src: &appendSource{records{benches: benches}}}
	cfg.Source = r.src
	if ch.Scenario.Checks || f.Checked {
		r.checks = check.New()
		cfg.Checks = r.checks
	}
	if f.Telemetry != nil {
		r.tel = f.Telemetry.For(ch.Name())
		cfg.Telemetry = r.tel
	}
	r.faulted = cfg.Faults != nil
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	r.sim = s
	return r, nil
}

// finish drains the runner past the horizon and folds its simulator into a
// chassisOut, mirroring runChassis's epilogue.
func (r *chassisRunner) finish() chassisOut {
	out := chassisOut{res: r.sim.Finish()}
	out.arrived = r.sim.Arrived()
	out.unfinished = r.sim.Unfinished()
	if r.checks != nil {
		if err := r.checks.Err(); err != nil {
			return chassisOut{err: fmt.Errorf("invariant violation: %w", err)}
		}
	}
	if r.faulted {
		out.ledger = &Ledger{
			FanEnergyJ:  float64(r.sim.FanEnergyJ()),
			Requeues:    r.sim.Requeues(),
			DeadSockets: r.sim.DeadSockets(),
			FlowFactor:  r.sim.FlowFactor(),
			Faulted:     1,
		}
	}
	return out
}

// runEpochs executes the fleet closed-loop over the arrival process. The
// stream itself is identical to the open-loop one (same generator, same
// seed); what changes is when routing decisions are made and what they see.
func (f *Fleet) runEpochs(fd *feed) (*Result, error) {
	n := len(f.chassis)
	d, err := newClosedDispatcher(f.dispatcher, f.chassis)
	if err != nil {
		return nil, err
	}
	runners := make([]*chassisRunner, n)
	for i := 0; i < n; i++ {
		r, err := f.newRunner(i, fd.benches)
		if err != nil {
			return nil, fmt.Errorf("chassis %s: %w", f.chassis[i].Name(), err)
		}
		runners[i] = r
	}
	workers := f.workerCount()
	res := &Result{
		Picks:      make([]int, 0, poissonCap(fd.mean)),
		Dispatcher: f.Dispatcher(),
		Workers:    workers,
		EpochS:     f.epoch,
	}

	// Shadow open-loop estimator: what the PR-8 pipeline would have believed
	// about each chassis, measured against what each boundary actually shows.
	shadow := make([]completionHeap, n)
	estErr := make([]int, n)

	obs := make([]sim.Observation, n)
	cum := make([]int, n)     // cumulative dispatched per chassis
	win := make([]int, n)     // dispatched this window
	arrived := make([]int, n) // observed arrivals at the last boundary
	emit := func(i int, a arrival) {
		runners[i].src.push(a)
		win[i]++
		cum[i]++
		shadow[i].push(a.at + a.nominal)
		if runners[i].tel != nil {
			runners[i].tel.OnDispatch()
		}
	}
	for i := 0; i < n; i++ {
		runners[i].sim.Observe(&obs[i])
		if runners[i].tel != nil {
			runners[i].tel.OnObservation()
		}
	}

	// ticksPerEpoch is exact by the EpochAligned validation at New time;
	// boundary advances by replaying the simulator's tick accumulation so
	// every RunTo stops bit-equal to it (see the package comment above).
	ticksPerEpoch := int(math.Round(float64(f.epoch) / float64(f.tick)))
	boundary := units.Seconds(0)
	for k := 0; ; k++ {
		for t := 0; t < ticksPerEpoch; t++ {
			boundary += f.tick
		}
		// Act: route this window's arrivals over the boundary-k snapshot.
		d.observe(obs)
		start := len(res.Picks)
		res.EpochStarts = append(res.EpochStarts, start)
		clear(win)
		res.Picks = fd.route(d, boundary, res.Picks, emit)
		windowStreamed := len(res.Picks) - start
		// Step: advance every chassis to the boundary in parallel. The
		// barrier below is the determinism fence — no chassis observes or
		// receives work while any other is mid-step.
		parallelEach(workers, n, func(i int) {
			runners[i].sim.RunTo(boundary)
			runners[i].src.rewind()
		})
		// Observe: serial snapshot pass, plus the shadow-estimator audit.
		for i := 0; i < n; i++ {
			runners[i].sim.Observe(&obs[i])
			arrived[i] = obs[i].Arrived
			h := &shadow[i]
			h.retire(boundary)
			e := len(*h) - obs[i].InFlight()
			if e < 0 {
				e = -e
			}
			estErr[i] += e
			if runners[i].tel != nil {
				runners[i].tel.OnDispatchEstErr(int64(e))
				runners[i].tel.OnEpoch()
				runners[i].tel.OnObservation()
			}
		}
		// Per-epoch conservation: everything dispatched through this window
		// is visible in the boundary observation, window routing included.
		if err := check.EpochClosure(k, windowStreamed, win, cum, arrived); err != nil {
			return nil, err
		}
		res.Epochs++
		if boundary >= fd.horizon {
			break
		}
	}

	// Drain: past the horizon no arrivals remain, so chassis are independent
	// again and Finish shards freely.
	outs := make([]chassisOut, n)
	parallelEach(workers, n, func(i int) {
		outs[i] = runners[i].finish()
	})
	for i := 0; i < n; i++ {
		outs[i].estErr = estErr[i]
	}
	return f.assemble(len(res.Picks), cum, outs, res)
}
