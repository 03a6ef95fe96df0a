package sim

import (
	"testing"

	"densim/internal/job"
	"densim/internal/sched"
	"densim/internal/telemetry"
	"densim/internal/units"
	"densim/internal/workload"
)

// TestSteadyStateHotPathsDoNotAllocate pins the per-tick and per-event hot
// paths to zero steady-state heap allocations. It snapshots a live, busy
// simulator mid-run (via the probe hook) and measures the power-manager
// tick, the idle-set scan, the next-completion query, and the placement
// decisions of CP and of every baseline policy that memoizes (CN, Balanced,
// A-Random, Predictive) with testing.AllocsPerRun. Only per-job bookkeeping
// (job.New at arrival) is allowed to allocate in steady state; everything
// here must run from reused scratch.
func TestSteadyStateHotPathsDoNotAllocate(t *testing.T) {
	cfg := smallConfig("CP", 0.9, workload.Computation)
	measured := false
	cfg.Probe = func(s *Simulator, now units.Seconds) {
		if measured || now < 1.0 {
			return
		}
		idle := s.idleSockets()
		busyCount := s.srv.NumSockets() - len(idle)
		if busyCount == 0 || len(idle) == 0 {
			return // wait for a mixed busy/idle state worth measuring
		}
		measured = true

		tick := s.cfg.TickPeriod
		if allocs := testing.AllocsPerRun(50, func() {
			s.powerManagerTick(tick)
		}); allocs != 0 {
			t.Errorf("powerManagerTick allocates %.1f objects/op, want 0", allocs)
		}

		if allocs := testing.AllocsPerRun(50, func() {
			s.idleSockets()
			s.nextCompletion()
		}); allocs != 0 {
			t.Errorf("idleSockets+nextCompletion allocate %.1f objects/op, want 0", allocs)
		}

		// Placement decisions over the live state: warm each memoized
		// policy's scratch and caches once, then demand allocation-free
		// picks, both replaying the memos (nothing moved) and after a tick
		// that advanced the lane epochs. The probe job is one already
		// running elsewhere — Pick only reads it.
		var j *job.Job
		for _, running := range s.jobs {
			if running != nil {
				j = running
				break
			}
		}
		if j == nil {
			t.Fatal("no running job despite busy sockets")
		}
		for _, name := range []string{"CP", "CN", "Balanced", "A-Random", "Predictive"} {
			sch, err := sched.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			sch.Pick(s, j, idle)
			if allocs := testing.AllocsPerRun(50, func() {
				sch.Pick(s, j, s.idleSockets())
			}); allocs != 0 {
				t.Errorf("%s Pick allocates %.1f objects/op, want 0", name, allocs)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				s.powerManagerTick(tick)
				sch.Pick(s, j, s.idleSockets())
			}); allocs != 0 {
				t.Errorf("%s Pick after a tick allocates %.1f objects/op, want 0", name, allocs)
			}
		}
	}
	_, s := runOne(t, cfg)
	if !measured {
		t.Fatalf("probe never saw a mixed busy/idle state (arrived=%d)", s.Arrived())
	}
}

// TestTickPathAllocFreeWithTelemetry re-measures the power-manager tick with
// the observability layer installed: instrumentation must stay on the
// zero-allocation budget too (atomic counters, preallocated ring and lane
// vector), not just when disabled. Together with the test above this pins
// the ISSUE's overhead contract at the allocation level for both states.
func TestTickPathAllocFreeWithTelemetry(t *testing.T) {
	cfg := smallConfig("CP", 0.9, workload.Computation)
	cfg.Telemetry = telemetry.New("alloc-test")
	measured := false
	cfg.Probe = func(s *Simulator, now units.Seconds) {
		if measured || now < 1.0 {
			return
		}
		measured = true
		tick := s.cfg.TickPeriod
		if allocs := testing.AllocsPerRun(50, func() {
			s.powerManagerTick(tick)
		}); allocs != 0 {
			t.Errorf("powerManagerTick with telemetry allocates %.1f objects/op, want 0", allocs)
		}
	}
	_, s := runOne(t, cfg)
	if !measured {
		t.Fatalf("probe never fired (arrived=%d)", s.Arrived())
	}
	if cfg.Telemetry.Counter(telemetry.CTicks) == 0 {
		t.Fatal("telemetry saw no ticks — the instrumented path was not exercised")
	}
}

// TestDrainPathDoesNotAllocate pins the per-event bookkeeping the drain
// path runs under load — the incrementally maintained idle set, the power
// funnel with its dirty-lane marking, and the completion-heap update — to
// zero steady-state allocations. Measured from a live mixed busy/idle
// state, as busy/idle round-trips that restore the state they found.
func TestDrainPathDoesNotAllocate(t *testing.T) {
	cfg := smallConfig("CP", 0.9, workload.Computation)
	measured := false
	cfg.Probe = func(s *Simulator, now units.Seconds) {
		if measured || now < 1.0 {
			return
		}
		busy := -1
		for i := range s.jobs {
			if s.jobs[i] != nil {
				busy = i
				break
			}
		}
		if busy < 0 || len(s.idleSockets()) == 0 {
			return // wait for a mixed state
		}
		measured = true

		if allocs := testing.AllocsPerRun(50, func() {
			s.markIdle(busy)
			s.markBusy(busy)
		}); allocs != 0 {
			t.Errorf("idle-set maintenance allocates %.1f objects/op, want 0", allocs)
		}

		st := &s.sockets[busy]
		w := s.powers[busy]
		if allocs := testing.AllocsPerRun(50, func() {
			s.setPower(busy, w+1)
			s.setPower(busy, w)
		}); allocs != 0 {
			t.Errorf("setPower funnel allocates %.1f objects/op, want 0", allocs)
		}

		d := st.doneAt
		if allocs := testing.AllocsPerRun(50, func() {
			s.setDoneAt(busy, d+0.001)
			s.setDoneAt(busy, d)
		}); allocs != 0 {
			t.Errorf("completion-heap update allocates %.1f objects/op, want 0", allocs)
		}
	}
	_, s := runOne(t, cfg)
	if !measured {
		t.Fatalf("probe never saw a mixed busy/idle state (arrived=%d)", s.Arrived())
	}
}

// TestSettledTickDoesNotAllocate pins the settled-stride fast path: once
// every lane holds a bit-exact thermal fixed point, the power-manager tick
// degenerates to the all-settled check plus bookkeeping — and that skip must
// stay on the zero-allocation budget like the sweeps it replaces.
func TestSettledTickDoesNotAllocate(t *testing.T) {
	// A Probe would disable striding (resolveEngine), so step the run with
	// RunTo instead and measure once the engine reports an all-settled
	// state — the busy plateau of settledConfig's t=0 batch.
	s, err := New(settledConfig(t, EngineConfig{}, nil))
	if err != nil {
		t.Fatal(err)
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
	if allocs := testing.AllocsPerRun(50, func() {
		s.powerManagerTick(tick)
	}); allocs != 0 {
		t.Errorf("settled powerManagerTick allocates %.1f objects/op, want 0", allocs)
	}
}
