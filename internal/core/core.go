// Package core is densim's public facade: a compact API for running
// thermal-coupling scheduling studies on density optimized servers without
// touching the individual substrate packages.
//
// The typical flow is three lines:
//
//	exp, _ := core.NewExperiment(core.Options{Scheduler: "CP", Workload: "Computation", Load: 0.7})
//	result, _ := exp.Run()
//	fmt.Println(result.MeanExpansion)
//
// Options is sugar over the scenario layer: it resolves to a scenario
// (internal/scenario) — the paper's 180-socket SUT by default, or any
// shipped preset or scenario file via Options.Scenario — with the explicit
// option fields applied on top. Callers needing custom topologies, traces,
// or schedulers either write a scenario file or drop down to the sim,
// geometry, trace, and sched packages, which are designed to compose (see
// examples/customsched).
package core

import (
	"fmt"
	"os"

	"densim/internal/check"
	"densim/internal/metrics"
	"densim/internal/scenario"
	"densim/internal/sched"
	"densim/internal/sim"
	"densim/internal/telemetry"
	"densim/internal/workload"
)

// Options selects a simulation study.
type Options struct {
	// Scenario selects the base run specification: a shipped preset name,
	// "preset:NAME", or a scenario file path (default the sut-180 preset
	// with a 10-second horizon). The remaining options override the
	// scenario's corresponding fields when set.
	Scenario string
	// Scheduler is a policy name from Schedulers() (default "CP").
	Scheduler string
	// Workload is "Computation", "GP", or "Storage" (default "GP").
	Workload string
	// Load is the target utilization in [0, 1+] (default 0.5).
	Load float64
	// Seed fixes the run's randomness (default 1).
	Seed uint64
	// Duration is the arrival horizon in seconds (default 10).
	Duration float64
	// Warmup discards metrics before this time (default 0.3*Duration).
	Warmup float64
	// SinkTau overrides the 30s socket thermal time constant; 0 keeps the
	// paper's value. Short exploratory runs use ~1s so the thermal field
	// settles inside the window.
	SinkTau float64
	// Inlet overrides the server inlet temperature (default 18C).
	Inlet float64
	// CustomScheduler plugs in a user-defined policy; it overrides
	// Scheduler when non-nil.
	CustomScheduler sched.Scheduler
	// TracePath replays a recorded job trace (see cmd/tracegen) instead of
	// the live Workload/Load generator. Files ending in .json are read as
	// JSON; everything else as the binary format. Duration defaults to the
	// trace's capture horizon.
	TracePath string
	// Telemetry optionally installs the observability layer (package
	// internal/telemetry) on every Run: counters, pick-latency and
	// queue-wait histograms, per-lane ambient-rise extrema, and the event
	// ring, readable as a Prometheus exposition or a JSONL run trace. Nil
	// disables instrumentation at zero cost.
	Telemetry *telemetry.Telemetry
}

// Schedulers lists the available policy names in the paper's order.
func Schedulers() []string { return sched.Names() }

// Workloads lists the benchmark-set names.
func Workloads() []string {
	out := make([]string, len(workload.Classes))
	for i, c := range workload.Classes {
		out[i] = c.String()
	}
	return out
}

// Presets lists the shipped scenario presets.
func Presets() []string { return scenario.Names() }

// Experiment is a configured, runnable study.
type Experiment struct {
	sc     *scenario.Scenario
	seed   uint64
	custom sched.Scheduler // overrides the scenario's policy when non-nil
	tel    *telemetry.Telemetry
	faults *FaultStats // ledger of the most recent Run, nil when unfaulted
}

// FaultStats summarizes the fault machinery's side ledger after a Run: what
// the injected timeline actually did to the machine. It is only populated
// for scenarios carrying a faults block — fan energy is deliberately kept
// out of metrics.Result so unfaulted runs stay bit-identical to historic
// digests.
type FaultStats struct {
	// FanEnergyJ is the chassis fan bank's electrical energy over the
	// measured window (survivor fans spin up after a failure, so this
	// rises under fan faults even as compute throughput falls).
	FanEnergyJ float64
	// Requeues counts jobs displaced by socket-death events.
	Requeues int
	// DeadSockets counts sockets lost by the end of the run.
	DeadSockets int
	// FlowFactor is the delivered/required airflow ratio at the end of the
	// run (1 means the bank kept up; < 1 means the chassis ran starved).
	FlowFactor float64
}

// FaultStats returns the fault ledger of the most recent Run and whether
// the scenario had a fault timeline at all.
func (e *Experiment) FaultStats() (FaultStats, bool) {
	if e.faults == nil {
		return FaultStats{}, false
	}
	return *e.faults, true
}

// scenarioFromOptions resolves Options to a scenario plus run seed.
func scenarioFromOptions(o Options) (*scenario.Scenario, uint64, error) {
	ref := o.Scenario
	if ref == "" {
		ref = "sut-180"
	}
	sc, err := scenario.Load(ref)
	if err != nil {
		return nil, 0, err
	}
	if o.Scenario == "" {
		// The documented Options defaults predate the scenario layer: a
		// 10-second horizon, not the preset's 20-second one.
		sc.Run.DurationS = 10
		sc.Run.WarmupS = 0
	}
	if o.Scheduler != "" {
		sc.Scheduler.Name = o.Scheduler
	}
	if o.Workload != "" {
		sc.Workload.Class = o.Workload
	}
	if o.Load != 0 {
		sc.Workload.Load = o.Load
	}
	if o.Duration != 0 {
		sc.Run.DurationS = o.Duration
	}
	if o.Warmup != 0 {
		sc.Run.WarmupS = o.Warmup
	}
	if o.SinkTau != 0 {
		sc.Run.SinkTauS = o.SinkTau
	}
	if o.Inlet != 0 {
		sc.Airflow.InletC = o.Inlet
	}
	if o.TracePath != "" {
		sc.Workload.Trace = o.TracePath
		if o.Duration == 0 {
			// The trace defines arrivals; its capture horizon becomes the
			// duration unless one was given.
			sc.Run.DurationS = 0
		}
	}
	seed := sc.FirstSeed()
	if o.Seed != 0 {
		seed = o.Seed
	}
	return sc, seed, nil
}

// NewExperiment validates options and builds the study.
func NewExperiment(o Options) (*Experiment, error) {
	sc, seed, err := scenarioFromOptions(o)
	if err != nil {
		return nil, err
	}
	return newExperiment(sc, seed, o.CustomScheduler, o.Telemetry)
}

// NewScenarioExperiment builds a study directly from a resolved scenario,
// using its first seed — the entry point for tools that already hold one
// (cmd/densim's -scenario path goes through here).
func NewScenarioExperiment(sc *scenario.Scenario, seed uint64, tel *telemetry.Telemetry) (*Experiment, error) {
	return newExperiment(sc, seed, nil, tel)
}

func newExperiment(sc *scenario.Scenario, seed uint64, custom sched.Scheduler, tel *telemetry.Telemetry) (*Experiment, error) {
	e := &Experiment{sc: sc, seed: seed, custom: custom, tel: tel}
	// Validate eagerly so callers see configuration errors here, not at
	// Run time: build the config (which loads any trace) and a simulator.
	cfg, err := e.config()
	if err != nil {
		return nil, err
	}
	if _, err := sim.New(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Scenario returns the study's resolved scenario. The caller must not
// mutate it.
func (e *Experiment) Scenario() *scenario.Scenario { return e.sc }

// config assembles a fresh sim.Config for one run.
func (e *Experiment) config() (sim.Config, error) {
	cfg, err := e.sc.Config(e.seed)
	if err != nil {
		return sim.Config{}, err
	}
	if e.custom != nil {
		cfg.Scheduler = e.custom
	}
	cfg.Telemetry = e.tel
	return cfg, nil
}

// Run executes the study and returns its metrics. Each call assembles a
// fresh config from the scenario (a new scheduler instance, a new trace
// player), so Run is repeatable and safe to call multiple times. When the
// scenario's Checks toggle is set, the run executes under the runtime
// invariant harness and any violation is returned as an error.
//
// The scenario's snapshot block changes how the run starts and what it
// leaves behind: Load restores a saved capture instead of simulating the
// warmup from the cold start, Save writes a capture at the end of the warmup
// window and then completes normally. Either way the returned metrics are
// bit-identical to the uninterrupted run (the sim package's snapshot
// contract).
func (e *Experiment) Run() (metrics.Result, error) {
	cfg, err := e.config()
	if err != nil {
		return metrics.Result{}, err
	}
	var h *check.Checks
	if e.sc.Checks {
		h = check.New()
		cfg.Checks = h
	}
	s, err := sim.New(cfg)
	if err != nil {
		return metrics.Result{}, err
	}
	var res metrics.Result
	switch {
	case e.sc.Snapshot.Load != "":
		data, err := os.ReadFile(e.sc.Snapshot.Load)
		if err != nil {
			return metrics.Result{}, fmt.Errorf("core: reading snapshot: %w", err)
		}
		if err := s.Restore(data); err != nil {
			return metrics.Result{}, fmt.Errorf("core: restoring snapshot %s: %w", e.sc.Snapshot.Load, err)
		}
		res = s.Finish()
	case e.sc.Snapshot.Save != "":
		s.RunTo(cfg.Warmup)
		data, err := s.Snapshot()
		if err != nil {
			return metrics.Result{}, fmt.Errorf("core: snapshotting at warmup: %w", err)
		}
		if err := sim.WriteFileAtomic(e.sc.Snapshot.Save, data); err != nil {
			return metrics.Result{}, fmt.Errorf("core: writing snapshot: %w", err)
		}
		res = s.Finish()
	default:
		res = s.Run()
	}
	if cfg.Faults != nil {
		e.faults = &FaultStats{
			FanEnergyJ:  float64(s.FanEnergyJ()),
			Requeues:    s.Requeues(),
			DeadSockets: s.DeadSockets(),
			FlowFactor:  s.FlowFactor(),
		}
	}
	if h != nil {
		if err := h.Err(); err != nil {
			return metrics.Result{}, fmt.Errorf("core: invariant violation: %w", err)
		}
	}
	return res, nil
}

// Compare runs the same study under several schedulers and reports each
// one's performance relative to the first (the baseline).
func Compare(base Options, schedulers []string) (map[string]float64, error) {
	if len(schedulers) == 0 {
		return nil, fmt.Errorf("core: no schedulers to compare")
	}
	results := make(map[string]metrics.Result, len(schedulers))
	for _, name := range schedulers {
		o := base
		o.Scheduler = name
		o.CustomScheduler = nil
		exp, err := NewExperiment(o)
		if err != nil {
			return nil, err
		}
		res, err := exp.Run()
		if err != nil {
			return nil, err
		}
		results[name] = res
	}
	baseline := results[schedulers[0]]
	out := make(map[string]float64, len(schedulers))
	for name, res := range results {
		out[name] = res.RelativePerformance(baseline)
	}
	return out, nil
}
