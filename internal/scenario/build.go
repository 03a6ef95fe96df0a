package scenario

// This file assembles the substrate objects a scenario describes: the
// server topology, airflow parameters, workload mix, scheduler, and
// finally the complete sim.Config for one seed. Builders are pure — every
// call constructs fresh objects, so one Scenario value can drive many
// concurrent runs.

import (
	"fmt"
	"os"
	"strings"

	"densim/internal/airflow"
	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/sched"
	"densim/internal/sim"
	"densim/internal/trace"
	"densim/internal/units"
	"densim/internal/workload"
)

// classByName resolves a benchmark-set name ("" defaults to GP).
func classByName(name string) (workload.Class, error) {
	if name == "" {
		return workload.GeneralPurpose, nil
	}
	for _, c := range workload.Classes {
		if c.String() == name {
			return c, nil
		}
	}
	names := make([]string, len(workload.Classes))
	for i, c := range workload.Classes {
		names[i] = c.String()
	}
	return 0, fmt.Errorf("scenario: unknown workload class %q (have %s)", name, strings.Join(names, ", "))
}

// Server builds the topology the scenario describes, with any cartridge SKU
// overrides installed.
func (s *Scenario) Server() (*geometry.Server, error) {
	srv, err := s.baseServer()
	if err != nil {
		return nil, err
	}
	if err := s.applySKUs(srv); err != nil {
		return nil, err
	}
	return srv, nil
}

// baseServer builds the topology before part overrides.
func (s *Scenario) baseServer() (*geometry.Server, error) {
	switch s.Topology.Preset {
	case "sut":
		return geometry.SUT(), nil
	case "coupled-pair":
		return geometry.CoupledPair(), nil
	case "uncoupled-pair":
		return geometry.UncoupledPair(), nil
	case "":
		t := s.Topology
		var sinks []chipmodel.Sink
		switch s.Chip.Sinks {
		case "", "alternating":
			sinks = geometry.AlternatingSinks(t.Depth)
		case "18fin":
			sinks = geometry.UniformSinks(t.Depth, chipmodel.Sink18Fin)
		case "30fin":
			sinks = geometry.UniformSinks(t.Depth, chipmodel.Sink30Fin)
		default:
			return nil, fmt.Errorf("scenario %q: unknown sink pattern %q", s.Name, s.Chip.Sinks)
		}
		return geometry.DenseSystemWithSinks(s.Name, t.Rows, t.Lanes, t.Depth, sinks)
	default:
		return nil, fmt.Errorf("scenario %q: unknown topology preset %q", s.Name, s.Topology.Preset)
	}
}

// AirflowParams builds the advection-network parameters: the calibrated
// defaults with the scenario's non-zero overrides applied. A zero field
// keeps the default, so inlet_c 0 cannot express a literal 0 C inlet —
// freezing-point inlets are outside the model's calibrated range anyway.
func (s *Scenario) AirflowParams() airflow.Params {
	p := airflow.DefaultParams()
	a := s.Airflow
	if a.InletC != 0 {
		p.Inlet = units.Celsius(a.InletC)
	}
	if a.FlowPerLaneCFM != 0 {
		p.FlowPerLane = units.CFM(a.FlowPerLaneCFM)
	}
	if a.Concentration != 0 {
		p.Concentration = a.Concentration
	}
	if a.MixLengthIn != 0 {
		p.MixLength = units.FromInches(a.MixLengthIn)
	}
	if a.AuxPerSocketW != 0 {
		p.AuxPerSocket = units.Watts(a.AuxPerSocketW)
	}
	return p
}

// Mix builds the workload mix: the named benchmark set, re-targeted at the
// scenario's TDP class when one is set.
func (s *Scenario) Mix() (workload.Mix, error) {
	class, err := classByName(s.Workload.Class)
	if err != nil {
		return workload.Mix{}, err
	}
	if s.Chip.TDPW > 0 && units.Watts(s.Chip.TDPW) != workload.TDP {
		return workload.ScaledClassMix(class, units.Watts(s.Chip.TDPW)), nil
	}
	return workload.ClassMix(class), nil
}

// NewScheduler builds a fresh instance of the scenario's placement policy.
// Stochastic policies carry RNG state, so callers must build one per run.
// The scheduler seed is the scenario's own when set, else the run seed —
// sweep runners pin the scheduler stream across seeds, interactive tools
// let it follow the run.
func (s *Scenario) NewScheduler(runSeed uint64) (sched.Scheduler, error) {
	name := s.Scheduler.Name
	if name == "" {
		name = "CP"
	}
	seed := s.Scheduler.Seed
	if seed == 0 {
		seed = runSeed
	}
	return sched.ByName(name, seed)
}

// Seeds returns the scenario's seed list, defaulting to [1]. The returned
// slice is fresh on every call.
func (s *Scenario) Seeds() []uint64 {
	if len(s.Run.Seeds) == 0 {
		return []uint64{1}
	}
	return append([]uint64(nil), s.Run.Seeds...)
}

// FirstSeed returns the seed single-run tools use.
func (s *Scenario) FirstSeed() uint64 { return s.Seeds()[0] }

// LoadTrace reads the scenario's recorded job trace, deciding the encoding
// by extension (.json = JSON, else binary). It returns (nil, nil) when the
// scenario has no trace.
func (s *Scenario) LoadTrace() (*trace.Trace, error) {
	if s.Workload.Trace == "" {
		return nil, nil
	}
	f, err := os.Open(s.Workload.Trace)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: opening trace: %w", s.Name, err)
	}
	defer f.Close()
	if strings.HasSuffix(s.Workload.Trace, ".json") {
		return trace.ReadJSON(f)
	}
	return trace.ReadBinary(f)
}

// TraceHorizon returns a trace's capture horizon, falling back to the last
// arrival time for hand-made traces without metadata.
func TraceHorizon(t *trace.Trace) units.Seconds {
	if t.Meta.Horizon > 0 {
		return units.Seconds(t.Meta.Horizon)
	}
	if n := len(t.Records); n > 0 {
		return t.Records[n-1].At + 0.001
	}
	return 1
}

// Config assembles the complete sim.Config for one run seed. Every call
// builds fresh objects (scheduler, trace player), so successive runs are
// independent and bit-identical. The Checks and Telemetry toggles are left
// to the runner: checks instances audit exactly one run and telemetry
// instances aggregate across runs, so their lifecycles belong to whoever
// owns the runs.
func (s *Scenario) Config(seed uint64) (sim.Config, error) {
	if err := s.Validate(); err != nil {
		return sim.Config{}, err
	}
	srv, err := s.Server()
	if err != nil {
		return sim.Config{}, err
	}
	scheduler, err := s.NewScheduler(seed)
	if err != nil {
		return sim.Config{}, err
	}
	mix, err := s.Mix()
	if err != nil {
		return sim.Config{}, err
	}
	load := s.Workload.Load
	if load == 0 {
		load = 0.5
	}
	cfg := sim.Config{
		Server:       srv,
		Airflow:      s.AirflowParams(),
		Scheduler:    scheduler,
		Mix:          mix,
		Load:         load,
		Seed:         seed,
		Duration:     units.Seconds(s.Run.DurationS),
		Warmup:       units.Seconds(s.Run.WarmupS),
		TickPeriod:   units.Seconds(s.Run.TickPeriodS),
		DrainLimit:   units.Seconds(s.Run.DrainLimitS),
		SinkTau:      units.Seconds(s.Run.SinkTauS),
		ChipTau:      units.Seconds(s.Run.ChipTauS),
		TDP:          units.Watts(s.Chip.TDPW),
		DisableBoost: s.Chip.DisableBoost,
		Migration: sim.MigrationConfig{
			Period: units.Seconds(s.Scheduler.MigrationPeriodS),
			Cost:   units.Seconds(s.Scheduler.MigrationCostS),
		},
		Engine: sim.EngineConfig{Mode: s.Engine.Mode},
	}
	if spec, err := s.Faults.Spec(); err != nil {
		return sim.Config{}, err
	} else if spec != nil {
		cfg.Faults = spec
	}
	if tr, err := s.LoadTrace(); err != nil {
		return sim.Config{}, err
	} else if tr != nil {
		cfg.Source = trace.NewPlayer(tr)
		if cfg.Duration == 0 {
			cfg.Duration = TraceHorizon(tr)
		}
	}
	if cfg.Duration == 0 {
		cfg.Duration = 10
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 0.3 * cfg.Duration
	}
	return cfg, nil
}
