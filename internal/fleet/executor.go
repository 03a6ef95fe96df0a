package fleet

// The fleet executor: the step/observe/act control seam. The fleet advances
// in zero or more tick-aligned epochs and then one last window:
//
//	observe -> route window k -> RunTo(boundary k+1) -> observe -> ...
//	-> route the last window up to the horizon -> drain
//
// Each boundary, every chassis reports its true state (queue depth, busy and
// dead sockets, settled ambient headroom) through sim.Observe, the dispatcher
// routes the next window's arrivals over those observations, and the window
// is pushed to each chassis's source before any chassis simulates past the
// boundary. Windows are drawn from the arrival process by one feed.route
// pass, and each source rewinds once its window is consumed, so a
// closed-loop chassis holds at most one epoch of arrivals. Dispatch and
// observation are serial fences; only the RunTo steps between them shard
// across the worker pool — so the feedback loop is closed yet the result
// stays a pure function of (scenario, seed, epoch period), independent of
// worker count.
//
// An open-loop fleet (no fleet.epoch block, or period 0) is the zero-epoch
// case: no boundary is ever observed, so its dispatcher routes the whole
// stream in the last window over estimated state before any chassis
// simulates. That is also what lets open-loop chassis, and only them,
// warm-start through Fleet.WarmDir: their source holds the full stream, and
// so a stable signature, before the first tick.
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
// Closed-loop runs also carry a shadow of the open-loop estimator: the same
// nominal-duration completion heap the estimated dispatchers route over,
// retired at each boundary and compared against the observed in-flight
// depth. The accumulated divergence (ChassisResult.EstErr, telemetry
// dispatch_est_err) quantifies exactly how wrong open-loop dispatch's
// picture of the fleet was — the number that motivates closing the loop.

import (
	"fmt"
	"math"

	"densim/internal/check"
	"densim/internal/sim"
	"densim/internal/telemetry"
	"densim/internal/units"
	"densim/internal/workload"
)

// chassisRunner is one chassis's live simulation, held open from before the
// first window until the drain.
type chassisRunner struct {
	sim     *sim.Simulator
	src     *source
	checks  *check.Checks
	tel     *telemetry.Telemetry
	faulted bool
	shadow  completionHeap // closed loop: the open-loop estimate of in-flight work
	estErr  int            // closed loop: accumulated |shadow - observed|
}

// newRunner builds chassis i's live simulator over an empty source with room
// for capacity arrivals.
func (f *Fleet) newRunner(i int, benches []workload.Benchmark, capacity int) (*chassisRunner, error) {
	ch := &f.chassis[i]
	cfg, err := ch.Scenario.Config(f.seed)
	if err != nil {
		return nil, err
	}
	r := &chassisRunner{src: &source{benches: benches, arrivals: make([]arrival, 0, capacity)}}
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

// observe reads the chassis's boundary state into o.
func (r *chassisRunner) observe(o *sim.Observation) {
	r.sim.Observe(o)
	if r.tel != nil {
		r.tel.OnObservation()
	}
}

// finish drains the runner past the horizon (warm-starting from warmDir when
// it is set; sim.RunWarm) and folds its simulator into a chassisOut.
func (r *chassisRunner) finish(warmDir string) chassisOut {
	out := chassisOut{res: r.sim.RunWarm(warmDir), estErr: r.estErr}
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

// Run executes the fleet: build one runner per chassis, step zero or more
// epochs, route the last window, drain, and reduce in canonical order
// (assemble). The stream is the same in both loop modes (same generator,
// same seed); what the epochs change is when routing decisions are made and
// what they see.
func (f *Fleet) Run() (*Result, error) {
	fd, err := f.newFeed()
	if err != nil {
		return nil, err
	}
	closed := f.epoch > 0
	d, err := newDispatcher(f.dispatcher, f.chassis, closed)
	if err != nil {
		return nil, err
	}
	n := len(f.chassis)
	workers := f.workerCount()
	// Each source is pre-sized for its chassis's socket share of one
	// window's expected arrivals; a policy that skews routing grows a few.
	window := 1.0
	if closed {
		window = min(float64(f.epoch/fd.horizon), 1)
	}
	total := f.sockets()
	runners := make([]*chassisRunner, n)
	errs := make([]error, n)
	parallelEach(workers, n, func(i int) {
		share := float64(f.chassis[i].Sockets) / float64(total) * window
		runners[i], errs[i] = f.newRunner(i, fd.benches, poissonCap(fd.mean*share))
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("chassis %s: %w", f.chassis[i].Name(), err)
		}
	}

	res := &Result{
		Picks:      make([]int, 0, poissonCap(fd.mean)),
		Dispatcher: f.Dispatcher(),
		Workers:    workers,
		EpochS:     f.epoch,
	}
	dispatched := make([]int, n) // cumulative per chassis
	win := make([]int, n)        // dispatched in the current window
	emit := func(i int, a arrival) {
		r := runners[i]
		r.src.push(a)
		win[i]++
		dispatched[i]++
		if closed {
			r.shadow.push(a.at + a.nominal)
		}
		if r.tel != nil {
			r.tel.OnDispatch()
		}
	}

	if closed {
		obs := make([]sim.Observation, n)
		arrived := make([]int, n) // observed arrivals at the last boundary
		for i, r := range runners {
			r.observe(&obs[i])
		}
		// ticksPerEpoch is exact by the EpochAligned validation at New time;
		// boundary advances by replaying the simulator's tick accumulation so
		// every RunTo stops bit-equal to it (see the file comment).
		ticksPerEpoch := int(math.Round(float64(f.epoch) / float64(f.tick)))
		for boundary := units.Seconds(0); boundary < fd.horizon; {
			for t := 0; t < ticksPerEpoch; t++ {
				boundary += f.tick
			}
			// Act: route this window's arrivals over the last observation.
			d.observe(obs)
			start := len(res.Picks)
			res.EpochStarts = append(res.EpochStarts, start)
			clear(win)
			res.Picks = fd.route(d, boundary, res.Picks, emit)
			// Step: advance every chassis to the boundary in parallel. The
			// barrier is the determinism fence — no chassis observes or
			// receives work while any other is mid-step.
			parallelEach(workers, n, func(i int) {
				runners[i].sim.RunTo(boundary)
				runners[i].src.rewind()
			})
			// Observe: serial snapshot pass, plus the shadow-estimator audit.
			for i, r := range runners {
				r.observe(&obs[i])
				arrived[i] = obs[i].Arrived
				r.shadow.retire(boundary)
				e := len(r.shadow) - obs[i].InFlight()
				if e < 0 {
					e = -e
				}
				r.estErr += e
				if r.tel != nil {
					r.tel.OnDispatchEstErr(int64(e))
					r.tel.OnEpoch()
				}
			}
			// Per-epoch conservation: everything dispatched through this
			// window is visible in the boundary observation.
			if err := check.EpochClosure(res.Epochs, len(res.Picks)-start, win, dispatched, arrived); err != nil {
				return nil, err
			}
			res.Epochs++
		}
	}

	// The last window: every arrival left before the horizon. Open loop this
	// is the whole stream; closed loop the epochs have already routed up to
	// a boundary at or past the horizon, so it is empty.
	res.Picks = fd.route(d, fd.horizon, res.Picks, emit)

	// Drain: no arrivals remain, so chassis are independent again and
	// finish shards freely. A closed-loop chassis has already stepped past
	// its warmup, so only the zero-epoch case warm-starts.
	warmDir := ""
	if !closed {
		warmDir = f.WarmDir
	}
	outs := make([]chassisOut, n)
	parallelEach(workers, n, func(i int) {
		outs[i] = runners[i].finish(warmDir)
	})
	return f.assemble(dispatched, outs, res)
}
