package sim

import (
	"reflect"
	"testing"

	"densim/internal/airflow"
	"densim/internal/check"
	"densim/internal/chipmodel"
	"densim/internal/fault"
	"densim/internal/geometry"
	"densim/internal/metrics"
	"densim/internal/sched"
	"densim/internal/telemetry"
	"densim/internal/units"
	"densim/internal/workload"
)

// chaosSpec is the test timeline: every fault kind fires inside the 0.4s
// horizon, with the throttle window closing before the end and the fan bank
// going through degrade -> fail -> recover.
func chaosSpec() *fault.Spec {
	return &fault.Spec{
		FanCount: 4,
		Events: []fault.Event{
			{At: 0.12, Kind: fault.KindFanDegrade, FlowFactor: 0.9},
			{At: 0.14, Kind: fault.KindInletRamp, DeltaC: 3, Ramp: 0.05},
			{At: 0.18, Kind: fault.KindFanFail, Fans: 1},
			{At: 0.20, Kind: fault.KindSocketDeath, Socket: 7},
			{At: 0.22, Kind: fault.KindThrottle, Socket: 3, Duration: 0.06},
			{At: 0.30, Kind: fault.KindFanRecover},
		},
	}
}

// faultedServer returns a fresh SUT with two cartridge-grained SKU
// overrides, so the matrix exercises the heterogeneous paths (per-socket
// leakage/idle power, capped ladder, several admissibility classes) at the
// same time as the fault machinery.
func faultedServer() *geometry.Server {
	srv := geometry.SUT()
	low := chipmodel.SKU{TDP: 18, FMax: 1500}
	hot := chipmodel.SKU{TDP: 30}
	for p := 0; p < 2; p++ {
		srv.SetSKU(srv.SocketAt(0, 0, p).ID, low)
		srv.SetSKU(srv.SocketAt(7, 1, 2+p).ID, hot)
	}
	return srv
}

// faultConfig mirrors the engine-equivalence config with the chaos timeline
// and heterogeneous SKUs installed.
func faultConfig(t testing.TB, schedName string, eng EngineConfig, tel *telemetry.Telemetry) Config {
	t.Helper()
	s, err := sched.ByName(schedName, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Server:    faultedServer(),
		Scheduler: s,
		Airflow:   airflow.SUTParams(),
		Mix:       workload.ClassMix(workload.Computation),
		Load:      0.9,
		Seed:      11,
		Duration:  0.4,
		Warmup:    0.1,
		SinkTau:   1,
		Telemetry: tel,
		Engine:    eng,
		Faults:    chaosSpec(),
	}
}

// faultOutcome is everything a faulted variant must reproduce bit-for-bit.
type faultOutcome struct {
	res        metrics.Result
	fanEnergy  units.Joules
	requeues   int
	dead       int
	flowFactor float64
}

// runFaultVariant executes one scheduler/engine combination of the faulted
// matrix; with fork set the run is snapshotted mid-timeline and restored. It
// returns the outcome, the counters minus the engine-only ones, and the
// per-lane maximum ambient rise.
func runFaultVariant(t *testing.T, schedName string, eng EngineConfig, fork bool) (faultOutcome, map[string]int64, []float64) {
	t.Helper()
	tel := telemetry.New(schedName)
	s, err := New(faultConfig(t, schedName, eng, tel))
	if err != nil {
		t.Fatal(err)
	}
	var res metrics.Result
	if fork {
		// 0.25 sits mid-timeline: the fan bank is degraded and down a fan,
		// the inlet ramp has completed, socket 7 is dead, socket 3's
		// throttle window is open, and the recover event is still pending.
		s.RunTo(0.25)
		data, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(data); err != nil {
			t.Fatal(err)
		}
		res = s.Finish()
	} else {
		res = s.Run()
	}
	return faultOutcome{
		res:        res,
		fanEnergy:  s.FanEnergyJ(),
		requeues:   s.Requeues(),
		dead:       s.DeadSockets(),
		flowFactor: s.FlowFactor(),
	}, withoutEngineCounters(tel), tel.LaneRiseMax()
}

// TestFaultEngineEquivalenceMatrix extends the bit-exactness contract to
// chaos: the full fault timeline plus heterogeneous SKUs, run through every
// engine variant (including a snapshot fork taken mid-timeline), must
// reproduce the serial reference exactly — results, fault side ledgers, and
// telemetry counters (which now include fault_events and requeues) and
// lane-rise maxima.
func TestFaultEngineEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted matrix is slow under -race; skipped in -short")
	}
	for _, schedName := range []string{"CP", "CF"} {
		refOut, refCounters, refRise := runFaultVariant(t, schedName, engineVariants[0].cfg, false)
		if refOut.dead != 1 {
			t.Fatalf("%s/serial: dead sockets = %d, want 1", schedName, refOut.dead)
		}
		if refCounters["fault_events"] == 0 {
			t.Fatalf("%s/serial: no fault events applied", schedName)
		}
		if refOut.fanEnergy <= 0 {
			t.Fatalf("%s/serial: fan energy ledger empty", schedName)
		}
		for _, v := range engineVariants[1:] {
			out, counters, rise := runFaultVariant(t, schedName, v.cfg, v.fork)
			if !reflect.DeepEqual(out, refOut) {
				t.Errorf("%s/%s: faulted outcome diverges from serial\n got %+v\nwant %+v",
					schedName, v.name, out, refOut)
			}
			if !reflect.DeepEqual(counters, refCounters) {
				t.Errorf("%s/%s: counters diverge from serial\n got %v\nwant %v",
					schedName, v.name, counters, refCounters)
			}
			if !reflect.DeepEqual(rise, refRise) {
				t.Errorf("%s/%s: lane rise maxima diverge from serial\n got %v\nwant %v",
					schedName, v.name, rise, refRise)
			}
		}
	}
}

// plainConfig is the faultConfig run without faults or SKUs — the
// metamorphic baseline.
func plainConfig(t *testing.T, schedName string, eng EngineConfig, tel *telemetry.Telemetry) Config {
	t.Helper()
	cfg := faultConfig(t, schedName, eng, tel)
	cfg.Server = geometry.SUT()
	cfg.Faults = nil
	return cfg
}

// TestFaultPostHorizonNoop pins the structural-no-op property: a fault
// timeline whose every event lies at or beyond the arrival horizon must
// leave the run byte-identical to a run with no fault spec at all — the fan
// model spins at its healthy point (flow factor exactly 1) and contributes
// nothing to the simulated physics, only to its own side ledger.
func TestFaultPostHorizonNoop(t *testing.T) {
	for _, eng := range []EngineConfig{{Mode: EngineSerial}, {}} {
		refTel := telemetry.New("plain")
		ref, err := New(plainConfig(t, "CF", eng, refTel))
		if err != nil {
			t.Fatal(err)
		}
		refRes := ref.Run()

		tel := telemetry.New("post-horizon")
		cfg := plainConfig(t, "CF", eng, tel)
		cfg.Faults = &fault.Spec{
			FanCount: 4,
			Events: []fault.Event{
				{At: 0.4, Kind: fault.KindFanFail, Fans: 2}, // exactly the horizon
				{At: 9.0, Kind: fault.KindSocketDeath, Socket: 3},
			},
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("engine %+v: post-horizon faults changed the run\n got %+v\nwant %+v", eng, res, refRes)
		}
		if got := s.FlowFactor(); got != 1 {
			t.Errorf("engine %+v: healthy flow factor = %v, want exactly 1", eng, got)
		}
		if tel.Counter(telemetry.CFaultEvents) != 0 {
			t.Errorf("engine %+v: post-horizon events were applied", eng)
		}
		if s.FanEnergyJ() <= 0 {
			t.Errorf("engine %+v: fan side ledger empty despite installed fan model", eng)
		}
	}
}

// TestFaultFailInstantRecoverNoop pins the second metamorphic identity: a
// fan failure and a recovery injected at the same instant must be
// indistinguishable — physics and fan energy both — from a run whose
// timeline is empty, because both steps drain at one tick boundary before
// the flow physics are recomputed.
func TestFaultFailInstantRecoverNoop(t *testing.T) {
	run := func(events []fault.Event) (metrics.Result, units.Joules) {
		cfg := plainConfig(t, "CP", EngineConfig{}, nil)
		cfg.Faults = &fault.Spec{FanCount: 4, Events: events}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(), s.FanEnergyJ()
	}
	refRes, refFan := run(nil)
	res, fan := run([]fault.Event{
		{At: 0.15, Kind: fault.KindFanFail, Fans: 3},
		{At: 0.15, Kind: fault.KindFanRecover},
	})
	if !reflect.DeepEqual(res, refRes) {
		t.Errorf("fail+instant-recover changed the run\n got %+v\nwant %+v", res, refRes)
	}
	if fan != refFan {
		t.Errorf("fail+instant-recover changed fan energy: %v != %v", fan, refFan)
	}
}

// TestFaultedRunUnderChecks runs the chaos timeline under the full invariant
// harness: zero violations, and the harness's independent fault ledgers must
// agree exactly with the simulator's own accounting.
func TestFaultedRunUnderChecks(t *testing.T) {
	h := check.New()
	cfg := faultConfig(t, "CP", EngineConfig{}, nil)
	cfg.Checks = h
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := h.Err(); err != nil {
		t.Fatalf("invariant violations in faulted run: %v", err)
	}
	st := h.Stats()
	if st.FaultEvents == 0 {
		t.Error("harness observed no fault events")
	}
	if st.DeadSockets != 1 || s.DeadSockets() != 1 {
		t.Errorf("dead sockets: harness %d, sim %d, want 1", st.DeadSockets, s.DeadSockets())
	}
	if st.Requeues != s.Requeues() {
		t.Errorf("requeues: harness %d, sim %d", st.Requeues, s.Requeues())
	}
	if st.FanEnergyJ != float64(s.FanEnergyJ()) {
		t.Errorf("fan energy: harness %v J, sim %v J (shadow integral must match bitwise)",
			st.FanEnergyJ, float64(s.FanEnergyJ()))
	}
	if st.FanEnergyJ <= 0 {
		t.Error("fan energy ledger empty")
	}
}

// TestSnapshotRejectsCrossFaultSchedule pins satellite coverage for the
// configuration signature: a capture taken under one fault timeline (or SKU
// map) must fail closed against a run configured with a different one — or
// with none.
func TestSnapshotRejectsCrossFaultSchedule(t *testing.T) {
	src, err := New(faultConfig(t, "CP", EngineConfig{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	src.RunTo(0.25)
	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Same faults, same SKUs: accepted (control).
	same, err := New(faultConfig(t, "CP", EngineConfig{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := same.Restore(data); err != nil {
		t.Fatalf("identical configuration rejected: %v", err)
	}

	// A shifted event time is a different schedule.
	shifted := faultConfig(t, "CP", EngineConfig{}, nil)
	shifted.Faults = chaosSpec()
	shifted.Faults.Events[0].At = 0.13
	dst, err := New(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(data); err == nil {
		t.Error("snapshot accepted under a different fault schedule")
	}

	// No faults at all.
	none := faultConfig(t, "CP", EngineConfig{}, nil)
	none.Faults = nil
	dst2, err := New(none)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst2.Restore(data); err == nil {
		t.Error("faulted snapshot accepted by an unfaulted run")
	}

	// Same faults, different SKU map.
	otherSKUs := faultConfig(t, "CP", EngineConfig{}, nil)
	otherSKUs.Server = geometry.SUT() // homogeneous
	dst3, err := New(otherSKUs)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst3.Restore(data); err == nil {
		t.Error("heterogeneous snapshot accepted by a homogeneous run")
	}
}

// TestFaultSpecValidation pins the Config-level validation path: a timeline
// referencing a socket outside the topology must be rejected at New.
func TestFaultSpecValidation(t *testing.T) {
	cfg := faultConfig(t, "CP", EngineConfig{}, nil)
	cfg.Faults = &fault.Spec{Events: []fault.Event{
		{At: 0.1, Kind: fault.KindSocketDeath, Socket: 9999},
	}}
	if _, err := New(cfg); err == nil {
		t.Error("socket-death beyond the topology accepted")
	}
	cfg.Faults = &fault.Spec{Events: []fault.Event{
		{At: 0.1, Kind: fault.KindFanFail, Fans: 1},
	}}
	if _, err := New(cfg); err == nil {
		t.Error("fan event without a fan bank accepted")
	}
}
