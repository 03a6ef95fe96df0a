package main

import (
	"time"

	"densim/internal/geometry"
	"densim/internal/job"
	"densim/internal/scenario"
	"densim/internal/sched"
	"densim/internal/sim"
	"densim/internal/telemetry"
)

// Per-layer readings: the simulator's existing telemetry counters, read
// after a run, and a Pick-timing scheduler decorator.

// counters sums the telemetry counters of one or more instances.
type counters struct {
	ticks, settled, strided, laneSkips, shards int64
	picks, down, up, arrivals                  int64
	dispatched, epochs, observations, estErr   int64
}

func readCounters(ts ...*telemetry.Telemetry) counters {
	var c counters
	for _, t := range ts {
		c.ticks += t.Counter(telemetry.CTicks)
		c.settled += t.Counter(telemetry.CSettledTicks)
		c.strided += t.Counter(telemetry.CStrideTicks)
		c.laneSkips += t.Counter(telemetry.CLaneSkips)
		c.shards += t.Counter(telemetry.CWorkerShards)
		c.picks += t.Counter(telemetry.CPicks)
		c.down += t.Counter(telemetry.CThrottleDown)
		c.up += t.Counter(telemetry.CThrottleUp)
		c.arrivals += t.Counter(telemetry.CArrivals)
		c.dispatched += t.Counter(telemetry.CDispatched)
		c.epochs += t.Counter(telemetry.CEpochs)
		c.observations += t.Counter(telemetry.CObservations)
		c.estErr += t.Counter(telemetry.CDispatchEstErr)
	}
	return c
}

// executed counts the ticks whose sweep ran: event ticks are a subset of
// settled ticks, so settled plus strided is every skipped tick.
func (c counters) executed() int64 { return c.ticks - c.settled - c.strided }

// workers is the tick-pool size the engine resolved: worker shards per
// executed sweep, 1 when the pool never engaged.
func (c counters) workers() float64 {
	if c.shards == 0 || c.executed() == 0 {
		return 1
	}
	return float64(c.shards) / float64(c.executed())
}

// report stores the sim, sched, chipmodel and workload counter metrics;
// lanes is the airflow channel count per run.
func (c counters) report(e *env, lanes int) {
	e.layer["sim.ticks"] = float64(c.ticks)
	if c.ticks > 0 {
		e.layer["sim.skipped_tick_share"] = float64(c.settled+c.strided) / float64(c.ticks)
		e.layer["sim.lane_skip_share"] = float64(c.laneSkips) / float64(c.ticks*int64(max(lanes, 1)))
	}
	e.layer["sim.workers"] = c.workers()
	e.layer["sim.worker_shards"] = float64(c.shards)
	e.layer["sched.picks"] = float64(c.picks)
	e.layer["chipmodel.throttle_down"] = float64(c.down)
	e.layer["chipmodel.throttle_up"] = float64(c.up)
	e.layer["workload.arrivals"] = float64(c.arrivals)
}

// lanesOf is the airflow channel count the instance was armed with.
func lanesOf(t *telemetry.Telemetry) int { return len(t.LaneRiseMax()) }

// resolvedWorkers runs a short instrumented copy of a scenario and reads
// back the tick-pool size the default engine resolved to.
func resolvedWorkers(sc *scenario.Scenario, seed uint64) (float64, error) {
	probe := *sc
	probe.Fleet = nil
	probe.Run.DurationS = 0.05
	probe.Run.WarmupS = 0
	probe.Run.DrainLimitS = 0.1
	cfg, err := probe.Config(seed)
	if err != nil {
		return 0, err
	}
	tel := telemetry.New("probe")
	cfg.Telemetry = tel
	s, err := sim.New(cfg)
	if err != nil {
		return 0, err
	}
	s.Run()
	return readCounters(tel).workers(), nil
}

// pickTimer collects the latency of every Pick through the decorator
// wrap returns, folding each into the innermost open span.
type pickTimer struct {
	tr    *tracer
	lat   []float64 // ns
	total time.Duration
}

// timedScheduler keeps the wrapped scheduler's Name and times its Pick.
type timedScheduler struct {
	sched.Scheduler
	pt *pickTimer
}

func (t timedScheduler) Pick(s sched.State, j *job.Job, idle []geometry.SocketID) geometry.SocketID {
	t0 := time.Now()
	id := t.Scheduler.Pick(s, j, idle)
	d := time.Since(t0)
	t.pt.lat = append(t.pt.lat, float64(d))
	t.pt.total += d
	t.pt.tr.fold(d)
	return id
}

// timedRNGScheduler also forwards RNGCarrier, which run snapshots look for.
type timedRNGScheduler struct {
	timedScheduler
	sched.RNGCarrier
}

func (p *pickTimer) wrap(s sched.Scheduler) sched.Scheduler {
	ts := timedScheduler{s, p}
	if rc, ok := s.(sched.RNGCarrier); ok {
		return timedRNGScheduler{ts, rc}
	}
	return ts
}
