// Package cliflags is the shared flag plumbing of the cmd/ tools. Before
// it existed, densim, sweep, and timeline each hand-rolled their scenario
// selection, simulation overrides, and telemetry setup, and the copies
// drifted (timeline's telemetry flag had a different name and sweep had no
// trace dump at all). The helpers here register one canonical flag
// vocabulary — -scenario plus the single-run override flags, and the
// -telemetry.addr / -telemetry.trace pair — and resolve them against the
// scenario layer with one rule: an explicitly set flag always wins over the
// loaded scenario, and when no -scenario is given the tool's historical
// flag defaults apply in full, keeping every pre-scenario invocation
// byte-compatible.
package cliflags

import (
	"flag"
	"fmt"
	"os"

	"densim/internal/scenario"
	"densim/internal/telemetry"
)

// Sim carries the single-run simulation flags. Fields are bound to flags by
// AddSim; Resolve folds them onto a scenario.
type Sim struct {
	// ScenarioRef is the -scenario value: a preset name, "preset:NAME", or
	// a scenario file path.
	ScenarioRef string
	Sched       string
	Workload    string
	Load        float64
	Duration    float64
	Warmup      float64
	SinkTau     float64
	Inlet       float64
	Seed        uint64
	TracePath   string
	// Engine selects the tick-loop execution engine; both engines produce
	// bit-identical results (see sim.EngineConfig).
	Engine string
	// Snapshot flags wire run snapshots (sim.Snapshot/Restore): save the
	// state at end of warmup, or warm-start from a saved capture.
	SnapshotSave string
	SnapshotLoad string
	// FaultsPath injects a fault timeline from a standalone faults file,
	// replacing whatever faults block the scenario carries.
	FaultsPath string

	fs *flag.FlagSet
}

// SimDefaults sets the tool-specific flag defaults AddSim registers — each
// tool keeps its historical bare-invocation behaviour.
type SimDefaults struct {
	Scenario string // default -scenario ref (usually "sut-180")
	Sched    string
	Workload string
	Load     float64
	Duration float64
	Seed     uint64
}

// AddSim registers the canonical single-run flags on fs and returns the
// bound Sim. Call Resolve after fs.Parse.
func AddSim(fs *flag.FlagSet, d SimDefaults) *Sim {
	s := &Sim{fs: fs}
	fs.StringVar(&s.ScenarioRef, "scenario", d.Scenario,
		"scenario to run: a shipped preset name, preset:NAME, or a scenario file path")
	fs.StringVar(&s.Sched, "sched", d.Sched, "scheduler override")
	fs.StringVar(&s.Workload, "workload", d.Workload, "workload set override: Computation, GP, Storage")
	fs.Float64Var(&s.Load, "load", d.Load, "target utilization override (0..1]")
	fs.Float64Var(&s.Duration, "duration", d.Duration, "arrival horizon override in simulated seconds")
	fs.Float64Var(&s.Warmup, "warmup", 0, "metrics warmup override in seconds (0 = scenario or derived default)")
	fs.Float64Var(&s.SinkTau, "sinktau", 0, "socket thermal time constant override in seconds (0 = paper's 30s)")
	fs.Float64Var(&s.Inlet, "inlet", 0, "inlet temperature override in C (0 = paper's 18C)")
	fs.Uint64Var(&s.Seed, "seed", d.Seed, "random seed override")
	fs.StringVar(&s.TracePath, "trace", "",
		"replay a recorded trace file (see cmd/tracegen) instead of the live generator")
	fs.StringVar(&s.Engine, "engine", "",
		"tick-loop engine: event or serial, the reference (bit-identical results; default event)")
	fs.StringVar(&s.SnapshotSave, "snapshot.save", "",
		"write a full-state snapshot at the end of warmup to this file, then finish the run")
	fs.StringVar(&s.SnapshotLoad, "snapshot.load", "",
		"warm-start the run from a snapshot file (must match this run's configuration; fails closed on mismatch or corruption)")
	fs.StringVar(&s.FaultsPath, "faults", "",
		"inject a fault timeline from this JSONC file (a scenario faults block: fan_count, fan_nominal_frac, events)")
	return s
}

// explicit returns the set of flag names the user passed on the command
// line (flag.Visit walks only those).
func (s *Sim) explicit() map[string]bool {
	set := map[string]bool{}
	s.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// Resolve loads the selected scenario and applies the overrides, returning
// the scenario and the run seed. The precedence rule: with an explicit
// -scenario, only flags the user actually set override the file; without
// one, every flag (including tool defaults) applies on top of the default
// preset — exactly the tool's pre-scenario behaviour.
func (s *Sim) Resolve() (*scenario.Scenario, uint64, error) {
	set := s.explicit()
	sc, err := scenario.Load(s.ScenarioRef)
	if err != nil {
		return nil, 0, err
	}
	// use reports whether a flag's value should reach the scenario.
	use := func(name string) bool { return set[name] || !set["scenario"] }
	if use("sched") && s.Sched != "" {
		sc.Scheduler.Name = s.Sched
	}
	if use("workload") && s.Workload != "" {
		sc.Workload.Class = s.Workload
	}
	if use("load") && s.Load != 0 {
		sc.Workload.Load = s.Load
	}
	if use("duration") && s.Duration != 0 {
		sc.Run.DurationS = s.Duration
	}
	if use("warmup") && s.Warmup != 0 {
		sc.Run.WarmupS = s.Warmup
	}
	if use("sinktau") && s.SinkTau != 0 {
		sc.Run.SinkTauS = s.SinkTau
	}
	if use("inlet") && s.Inlet != 0 {
		sc.Airflow.InletC = s.Inlet
	}
	if use("engine") && s.Engine != "" {
		sc.Engine.Mode = s.Engine
	}
	if s.SnapshotSave != "" {
		sc.Snapshot.Save = s.SnapshotSave
	}
	if s.SnapshotLoad != "" {
		sc.Snapshot.Load = s.SnapshotLoad
	}
	if s.FaultsPath != "" {
		f, err := scenario.LoadFaults(s.FaultsPath)
		if err != nil {
			return nil, 0, err
		}
		sc.Faults = f
	}
	if s.TracePath != "" {
		sc.Workload.Trace = s.TracePath
		if !set["duration"] {
			// The trace defines arrivals; duration follows its horizon
			// unless explicitly set.
			sc.Run.DurationS = 0
		}
	}
	seed := sc.FirstSeed()
	if set["seed"] || !set["scenario"] {
		seed = s.Seed
	}
	return sc, seed, nil
}

// Fleet carries the fleet-level flags of cmd/fleetsim: where the fleet
// block comes from and the two run-time overrides that never change
// results, only routing policy and wall-clock time.
type Fleet struct {
	// FleetPath loads a standalone fleet file (see scenario.DecodeFleet),
	// replacing whatever fleet block the scenario carries.
	FleetPath string
	// Dispatcher overrides the fleet dispatcher policy.
	Dispatcher string
	// Workers overrides the chassis worker-pool bound.
	Workers int
	// EpochS overrides the closed-loop epoch period: -1 keeps the
	// scenario's, 0 forces open loop, > 0 runs closed-loop at that period.
	EpochS float64
}

// AddFleet registers the fleet flags on fs.
func AddFleet(fs *flag.FlagSet) *Fleet {
	f := &Fleet{}
	fs.StringVar(&f.FleetPath, "fleet", "",
		"load the fleet block from this JSONC file (a scenario fleet block: dispatcher, workers, chassis), replacing the scenario's own")
	fs.StringVar(&f.Dispatcher, "dispatcher", "",
		"fleet dispatcher override: round-robin, least-loaded, or thermal")
	fs.IntVar(&f.Workers, "fleet.workers", 0,
		"chassis worker-pool bound override (0 = scenario or GOMAXPROCS; never affects results)")
	fs.Float64Var(&f.EpochS, "fleet.epoch", -1,
		"closed-loop epoch period in seconds (a tick multiple); 0 forces open-loop dispatch, -1 keeps the scenario's fleet.epoch block")
	return f
}

// Apply folds the fleet flags onto a resolved scenario. The scenario must
// end up with a fleet block — its own, or one loaded via -fleet.
func (f *Fleet) Apply(sc *scenario.Scenario) error {
	if f.FleetPath != "" {
		fl, err := scenario.LoadFleet(f.FleetPath)
		if err != nil {
			return err
		}
		sc.Fleet = fl
	}
	if sc.Fleet == nil {
		return fmt.Errorf("scenario %q has no fleet block (pick a fleet preset like fleet-2x2, or pass -fleet FILE)", sc.Name)
	}
	if f.Dispatcher != "" {
		sc.Fleet.Dispatcher = f.Dispatcher
	}
	if f.Workers != 0 {
		sc.Fleet.Workers = f.Workers
	}
	switch {
	case f.EpochS > 0:
		sc.Fleet.Epoch = &scenario.FleetEpoch{PeriodS: f.EpochS}
	case f.EpochS == 0:
		sc.Fleet.Epoch = nil
	}
	return nil
}

// Telemetry carries the telemetry sink flags shared by every simulating
// tool.
type Telemetry struct {
	// Addr serves a Prometheus-style /metrics endpoint during the run.
	Addr string
	// TracePath receives the run's telemetry as JSONL ("-" = stdout).
	TracePath string
}

// AddTelemetry registers -telemetry.addr and -telemetry.trace on fs.
func AddTelemetry(fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{}
	fs.StringVar(&t.Addr, "telemetry.addr", "",
		"serve a Prometheus-style /metrics endpoint on this address while the run executes (e.g. :9090)")
	fs.StringVar(&t.TracePath, "telemetry.trace", "",
		"write the run's telemetry as a JSONL trace to this file (- for stdout)")
	return t
}

// Enabled reports whether any telemetry sink was requested.
func (t *Telemetry) Enabled() bool { return t.Addr != "" || t.TracePath != "" }

// Start creates the telemetry instance when a sink was requested (nil
// otherwise) and, if -telemetry.addr was given, starts serving /metrics,
// reporting server errors through onErr.
func (t *Telemetry) Start(label string, onErr func(error)) *telemetry.Telemetry {
	if !t.Enabled() {
		return nil
	}
	tel := telemetry.New(label)
	if t.Addr != "" {
		telemetry.Serve(t.Addr, tel.Handler(), onErr)
	}
	return tel
}

// WriteTrace dumps the run's telemetry (plus optional zone samples) as
// JSONL to -telemetry.trace. A no-op when the flag was not given.
func (t *Telemetry) WriteTrace(tel *telemetry.Telemetry, samples []telemetry.Sample) error {
	if t.TracePath == "" || tel == nil {
		return nil
	}
	tr := tel.Snapshot(samples)
	if t.TracePath == "-" {
		return telemetry.WriteJSONL(os.Stdout, tr)
	}
	f, err := os.Create(t.TracePath)
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSONL(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
