package sim

import (
	"reflect"
	"strings"
	"testing"

	"densim/internal/airflow"
	"densim/internal/fault"
	"densim/internal/geometry"
	"densim/internal/metrics"
	"densim/internal/sched"
	"densim/internal/telemetry"
	"densim/internal/units"
	"densim/internal/workload"
)

// engineVariants is the engine matrix every scheduler/topology pair is run
// through: the serial reference, the default event engine, and an event
// fork — the run interrupted mid-flight, serialized, restored in place, and
// finished. Every variant must reproduce the serial run bit-for-bit.
var engineVariants = []struct {
	name string
	cfg  EngineConfig
	fork bool // RunTo + Snapshot + Restore + Finish instead of Run
}{
	{name: "serial", cfg: EngineConfig{Mode: EngineSerial}},
	{name: "event", cfg: EngineConfig{}},
	{name: "event-fork", cfg: EngineConfig{}, fork: true},
}

// equivTopologies returns the matrix's two topologies: the 180-socket SUT
// and the double-density 360-socket system.
func equivTopologies(t *testing.T) map[string]*geometry.Server {
	t.Helper()
	dd, err := geometry.DenseSystemWithSinks("dd360", 15, 2, 12, geometry.AlternatingSinks(12))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*geometry.Server{"sut-180": geometry.SUT(), "dd360": dd}
}

// runEngineVariant runs one scheduler/topology/engine combination with a
// fresh telemetry instance and returns the result, the name-keyed counter
// map with the engine-only counters removed, and the per-lane maximum
// ambient rise. With fork set, the run is interrupted at a mid-run tick
// boundary, snapshotted, restored in place (which exercises the full
// serialize/validate/rebuild cycle while keeping the same telemetry
// accumulator), and finished.
func runEngineVariant(t *testing.T, srv *geometry.Server, schedName string, eng EngineConfig, load float64, fork bool) (metrics.Result, map[string]int64, []float64) {
	t.Helper()
	s, err := sched.ByName(schedName, 1)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(schedName)
	cfg := Config{
		Server:    srv,
		Scheduler: s,
		Airflow:   airflow.SUTParams(),
		Mix:       workload.ClassMix(workload.Computation),
		Load:      load,
		Seed:      11,
		Duration:  0.4,
		Warmup:    0.1,
		SinkTau:   1,
		Telemetry: tel,
		Engine:    eng,
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res metrics.Result
	if fork {
		sim.RunTo(0.2)
		data, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Restore(data); err != nil {
			t.Fatal(err)
		}
		res = sim.Finish()
	} else {
		res = sim.Run()
	}
	return res, withoutEngineCounters(tel), tel.LaneRiseMax()
}

// TestEngineEquivalenceMatrix is the tentpole's oracle in miniature: every
// registered scheduler on the SUT and the double-density system, executed
// by every engine variant, must produce a byte-identical metrics.Result and
// identical telemetry counters (modulo the engine's own skip counters) and
// identical lane-rise maxima, the thermal field as telemetry observes it.
// Bit-exactness is the contract — reflect.DeepEqual over the float-bearing
// Result, no tolerances.
func TestEngineEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is minutes under -race; skipped in -short")
	}
	for topoName, srv := range equivTopologies(t) {
		for _, schedName := range sched.Names() {
			refRes, refCounters, refRise := runEngineVariant(t, srv, schedName, engineVariants[0].cfg, 0.9, false)
			for _, v := range engineVariants[1:] {
				res, counters, rise := runEngineVariant(t, srv, schedName, v.cfg, 0.9, v.fork)
				if !reflect.DeepEqual(res, refRes) {
					t.Errorf("%s/%s/%s: result diverges from serial\n got %+v\nwant %+v",
						topoName, schedName, v.name, res, refRes)
				}
				if !reflect.DeepEqual(counters, refCounters) {
					t.Errorf("%s/%s/%s: counters diverge from serial\n got %v\nwant %v",
						topoName, schedName, v.name, counters, refCounters)
				}
				if !reflect.DeepEqual(rise, refRise) {
					t.Errorf("%s/%s/%s: lane rise maxima diverge from serial\n got %v\nwant %v",
						topoName, schedName, v.name, rise, refRise)
				}
			}
		}
	}
}

// deadTailConfig builds a run with a deterministic dead tail: a burst of
// short jobs at t=0, all gone within tens of milliseconds, then an empty
// horizon out to 0.4s the gap advance can take under its dead-tail licence.
// A Poisson stream is no good here — its arrivals span the whole horizon, so
// the dead tail shrinks to the last few ticks.
func deadTailConfig(t *testing.T, eng EngineConfig, tel *telemetry.Telemetry) Config {
	t.Helper()
	s, err := sched.ByName("CF", 1)
	if err != nil {
		t.Fatal(err)
	}
	bench := workload.ByClass(workload.Computation)[0]
	arrivals := make([]listArrival, 12)
	for i := range arrivals {
		arrivals[i] = listArrival{at: 0, bench: bench, nominal: 0.02}
	}
	return Config{
		Server:    geometry.SUT(),
		Scheduler: s,
		Airflow:   airflow.SUTParams(),
		Source:    &listSource{arrivals: arrivals},
		Seed:      11,
		Duration:  0.4,
		Warmup:    0.1,
		SinkTau:   1,
		Telemetry: tel,
		Engine:    eng,
	}
}

// withoutEngineCounters returns tel's counters minus the engine-only ones,
// which are the only counters allowed to differ across engines.
func withoutEngineCounters(tel *telemetry.Telemetry) map[string]int64 {
	counters := tel.Snapshot(nil).Counters
	for _, id := range telemetry.EngineCounters() {
		delete(counters, id.Name())
	}
	return counters
}

// TestEngineDeadTailTelemetryMatchesSerial is the regression test for a
// dead tail whose thermal field telemetry reads: installed telemetry samples
// every lane's ambient rise, so the default engine must keep sweeping the
// tail (the field keeps moving after the last job leaves) and report the
// lane-rise maxima and counters the serial reference does. A tail skip that
// freezes the field under telemetry reads lane 0's maximum rise as 0.93 °C
// against serial's 10.37 °C, with an identical metrics.Result.
func TestEngineDeadTailTelemetryMatchesSerial(t *testing.T) {
	refTel := telemetry.New("serial")
	refSim, err := New(deadTailConfig(t, EngineConfig{Mode: EngineSerial}, refTel))
	if err != nil {
		t.Fatal(err)
	}
	refRes := refSim.Run()

	tel := telemetry.New("event")
	sim, err := New(deadTailConfig(t, EngineConfig{}, tel))
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if !reflect.DeepEqual(res, refRes) {
		t.Errorf("result diverges from serial\n got %+v\nwant %+v", res, refRes)
	}
	if got, want := tel.LaneRiseMax(), refTel.LaneRiseMax(); !reflect.DeepEqual(got, want) {
		t.Errorf("lane rise maxima diverge from serial\n got %v\nwant %v", got, want)
	}
	if got, want := withoutEngineCounters(tel), withoutEngineCounters(refTel); !reflect.DeepEqual(got, want) {
		t.Errorf("counters diverge from serial\n got %v\nwant %v", got, want)
	}
	if skips := tel.Counter(telemetry.CLaneSkips); skips == 0 {
		t.Error("CLaneSkips = 0: the dirty-lane engine never skipped a settled lane")
	}
}

// TestEngineDeadTailSkipsSweep pins the gap advance's dead-tail licence to
// engaging on an uninstrumented idle tail — and to changing nothing any
// result can see. After the t=0 burst drains, nothing is pending; the
// default engine must match serial's Result (and fan ledger) bit-for-bit
// while leaving the thermal field where the tail began, so its final
// ambients differ from serial's, which swept the tail. The cases cover the
// homogeneous repeated-addition accrual, its exit at migration boundaries
// (where every socket's lastUpdate must have caught up with the clock), and
// the per-socket replay under heterogeneous SKUs and under an exhausted
// fault timeline (a dead socket and a degraded fan bank keep their idle and
// fan ledgers in the tail).
func TestEngineDeadTailSkipsSweep(t *testing.T) {
	cases := map[string]func(*Config){
		"homogeneous": func(*Config) {},
		"migration":   func(c *Config) { c.Migration = MigrationConfig{Period: 0.05} },
		"skus":        func(c *Config) { c.Server = faultedServer() },
		"faults": func(c *Config) {
			c.Faults = &fault.Spec{
				FanCount: 4,
				Events: []fault.Event{
					{At: 0.01, Kind: fault.KindSocketDeath, Socket: 100},
					{At: 0.05, Kind: fault.KindFanDegrade, FlowFactor: 0.8},
				},
			}
		},
	}
	for name, edit := range cases {
		refCfg := deadTailConfig(t, EngineConfig{Mode: EngineSerial}, nil)
		edit(&refCfg)
		refSim, err := New(refCfg)
		if err != nil {
			t.Fatal(err)
		}
		refRes := refSim.Run()

		cfg := deadTailConfig(t, EngineConfig{}, nil)
		edit(&cfg)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sim.eng.skipTicks {
			t.Fatalf("%s: tick skipping not armed on the default engine", name)
		}
		res := sim.Run()
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("%s: result diverges from serial\n got %+v\nwant %+v", name, res, refRes)
		}
		if got, want := sim.FanEnergyJ(), refSim.FanEnergyJ(); got != want {
			t.Errorf("%s: fan energy %v, serial %v", name, got, want)
		}
		if reflect.DeepEqual(sim.amb, refSim.amb) {
			t.Errorf("%s: final ambients equal serial's: the dead tail was swept, not skipped", name)
		}
	}
}

// settledConfig builds a run designed to reach a bit-exact thermal fixed
// point while work is still running: a handful of long jobs at t=0 and
// aggressively short time constants, so every first-order blend converges to
// its target within tens of ticks and then holds bit-for-bit until the jobs
// complete. The busy middle of this run is where settled-stride must engage —
// a window the dead-tail licence can never cover because sockets are busy.
func settledConfig(t *testing.T, eng EngineConfig, tel *telemetry.Telemetry) Config {
	t.Helper()
	s, err := sched.ByName("CF", 1)
	if err != nil {
		t.Fatal(err)
	}
	bench := workload.ByClass(workload.Computation)[0]
	arrivals := make([]listArrival, 4)
	for i := range arrivals {
		arrivals[i] = listArrival{at: 0, bench: bench, nominal: 0.25}
	}
	return Config{
		Server:      geometry.SUT(),
		Scheduler:   s,
		Airflow:     airflow.SUTParams(),
		Source:      &listSource{arrivals: arrivals},
		Seed:        11,
		Duration:    0.4,
		Warmup:      0.1,
		SinkTau:     0.004,
		ChipTau:     0.001,
		HistoryTau:  0.004,
		BoostWindow: 0.002,
		Telemetry:   tel,
		Engine:      eng,
	}
}

// TestEngineSettledStrideFires pins the settled-stride to engaging on a busy
// steady state — and to changing nothing. Once every lane's sweep is a
// bit-exact identity, the engine must skip whole power-manager sweeps
// (CSettledTicks > 0) while jobs are still running, and the run must stay
// bit-identical to the serial reference, including the total tick count.
func TestEngineSettledStrideFires(t *testing.T) {
	refTel := telemetry.New("serial")
	refSim, err := New(settledConfig(t, EngineConfig{Mode: EngineSerial}, refTel))
	if err != nil {
		t.Fatal(err)
	}
	refRes := refSim.Run()
	refCounters := withoutEngineCounters(refTel)

	tel := telemetry.New("settled")
	sim, err := New(settledConfig(t, EngineConfig{}, tel))
	if err != nil {
		t.Fatal(err)
	}
	if sim.eng.laneSettled == nil {
		t.Fatal("settled tracking not armed on the default engine")
	}
	res := sim.Run()
	if got := tel.Counter(telemetry.CSettledTicks); got == 0 {
		t.Error("CSettledTicks = 0: no sweep was skipped at the fixed point")
	}
	counters := withoutEngineCounters(tel)
	if !reflect.DeepEqual(res, refRes) {
		t.Errorf("settled-stride result diverges from serial\n got %+v\nwant %+v", res, refRes)
	}
	if !reflect.DeepEqual(counters, refCounters) {
		t.Errorf("settled-stride counters diverge from serial\n got %v\nwant %v", counters, refCounters)
	}
}

// TestEngineEventGapFires pins the unified event queue to actually engaging
// on a settled busy plateau — and to changing nothing. With the event engine
// named explicitly, the run must execute gap-advance ticks (CEventTicks > 0)
// while jobs are still running, and stay bit-identical to the serial
// reference, counters included.
func TestEngineEventGapFires(t *testing.T) {
	refTel := telemetry.New("serial")
	refSim, err := New(settledConfig(t, EngineConfig{Mode: EngineSerial}, refTel))
	if err != nil {
		t.Fatal(err)
	}
	refRes := refSim.Run()
	refCounters := withoutEngineCounters(refTel)

	tel := telemetry.New("event")
	sim, err := New(settledConfig(t, EngineConfig{Mode: EngineEvent}, tel))
	if err != nil {
		t.Fatal(err)
	}
	if sim.eng.laneSettled == nil {
		t.Fatal("event queue not armed despite event mode")
	}
	res := sim.Run()
	if got := tel.Counter(telemetry.CEventTicks); got == 0 {
		t.Error("CEventTicks = 0: the gap advance never engaged")
	}
	counters := withoutEngineCounters(tel)
	if !reflect.DeepEqual(res, refRes) {
		t.Errorf("event-engine result diverges from serial\n got %+v\nwant %+v", res, refRes)
	}
	if !reflect.DeepEqual(counters, refCounters) {
		t.Errorf("event-engine counters diverge from serial\n got %v\nwant %v", counters, refCounters)
	}
}

// TestEventGapAdvanceDoesNotAllocate pins the event engine's gap advance to
// the same zero-allocation budget as the tick path it replaces: once the run
// reaches an all-settled state, marching the clock through a whole gap —
// float replay, fan ledger, settled-tick telemetry — must not allocate.
func TestEventGapAdvanceDoesNotAllocate(t *testing.T) {
	// A Probe would disable striding (and with it the event queue), so step
	// the run with RunTo and measure once the engine reports all-settled.
	tel := telemetry.New("event-alloc")
	s, err := New(settledConfig(t, EngineConfig{}, tel))
	if err != nil {
		t.Fatal(err)
	}
	if s.eng.laneSettled == nil {
		t.Fatal("event queue not armed on the default engine")
	}
	settled := false
	for to := units.Seconds(0.05); to <= 0.25; to += 0.05 {
		s.RunTo(to)
		if s.eng.allSettled() {
			settled = true
			break
		}
	}
	if !settled {
		t.Fatal("run never reached an all-settled state")
	}
	tick := s.cfg.TickPeriod
	hardStop := s.cfg.DrainLimit
	if allocs := testing.AllocsPerRun(20, func() {
		s.eventGapAdvance(s.now+4*tick, tick, hardStop)
	}); allocs != 0 {
		t.Errorf("eventGapAdvance allocates %.1f objects/op, want 0", allocs)
	}
	if tel.Counter(telemetry.CEventTicks) == 0 {
		t.Fatal("no event ticks executed — the measured path was not exercised")
	}
}

// TestEngineChecksCrossAudit runs the default engine with the invariant
// harness installed (the DENSIM_CHECKS=1 configuration): the sparse-vs-dense
// cross-audits — ambient cache against a dense advection recompute, the
// incremental idle set against a busy-flag scan — must observe a live run
// and find nothing. Striding is implicitly disabled by the harness.
func TestEngineChecksCrossAudit(t *testing.T) {
	cfg := smallConfig("CP", 0.9, workload.Computation)
	h := newRunChecks(t, &cfg)
	_, sim := runOne(t, cfg) // fails the test on any recorded violation
	if !sim.eng.incremental {
		t.Fatal("default engine did not resolve to the incremental sweep")
	}
	if sim.eng.skipTicks {
		t.Error("tick skipping armed despite installed checks")
	}
	if st := h.Stats(); st.Audits == 0 {
		t.Errorf("harness never audited (ticks=%d)", st.Ticks)
	}
}

// TestEngineConfigValidate pins the engine mode's validation: the two
// engines pass, and the removed modes fail closed with an error naming the
// surviving ones.
func TestEngineConfigValidate(t *testing.T) {
	for _, mode := range []string{"", EngineEvent, EngineSerial} {
		if err := (EngineConfig{Mode: mode}).Validate(); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", mode, err)
		}
	}
	for _, mode := range []string{"turbo", "auto", "parallel"} {
		err := EngineConfig{Mode: mode}.Validate()
		if err == nil {
			t.Errorf("Validate(%q) accepted an unknown mode", mode)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "event") || !strings.Contains(msg, "serial") {
			t.Errorf("Validate(%q) = %q, want the surviving modes named", mode, msg)
		}
	}
}

// TestEngineSerialFallbacks pins the resolution rules that keep exotic
// configurations on the safe path: a custom thermal chain cannot use the
// incremental sweep, and a probe or harness disables striding.
func TestEngineSerialFallbacks(t *testing.T) {
	cfg := smallConfig("CF", 0.5, workload.Computation)
	cfg.Thermal = constantChain{inlet: 25}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.eng.incremental {
		t.Error("incremental engine engaged over a non-airflow thermal chain")
	}

	cfg = smallConfig("CF", 0.5, workload.Computation)
	cfg.Probe = func(*Simulator, units.Seconds) {}
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.eng.skipTicks {
		t.Error("tick skipping armed despite installed probe")
	}
}
