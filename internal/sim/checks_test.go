package sim

import (
	"math"
	"testing"

	"densim/internal/check"
	"densim/internal/geometry"
	"densim/internal/metrics"
	"densim/internal/sched"
	"densim/internal/trace"
	"densim/internal/units"
	"densim/internal/workload"
)

// listSource replays a fixed list of arrivals — the minimal job.Source for
// constructing exact regression scenarios.
type listSource struct {
	arrivals []listArrival
	next     int
}

type listArrival struct {
	at      units.Seconds
	bench   workload.Benchmark
	nominal units.Seconds
}

func (l *listSource) Peek() units.Seconds {
	if l.next >= len(l.arrivals) {
		return units.Seconds(math.Inf(1))
	}
	return l.arrivals[l.next].at
}

func (l *listSource) Next() (units.Seconds, workload.Benchmark, units.Seconds) {
	a := l.arrivals[l.next]
	l.next++
	return a.at, a.bench, a.nominal
}

// newRunChecks attaches a fresh harness to cfg (for tests that need the
// *Simulator before Run and so cannot go through runOne) and returns it so
// the caller can assert on Err() after the run.
func newRunChecks(t *testing.T, cfg *Config) *check.Checks {
	t.Helper()
	h := check.New()
	cfg.Checks = h
	return h
}

func countViolations(h *check.Checks, invariant string) int {
	n := 0
	for _, v := range h.Violations() {
		if v.Invariant == invariant {
			n++
		}
	}
	return n
}

// TestCheckedRunObservesEverything asserts the harness actually audited a
// realistic run — ticks, audits, placements, completions and an energy
// integral all nonzero — so a green checked run means the checks ran, not
// that they were skipped.
func TestCheckedRunObservesEverything(t *testing.T) {
	h := check.New()
	cfg := smallConfig("CP", 0.5, workload.GeneralPurpose)
	cfg.Checks = h
	res, s := runOne(t, cfg)
	st := h.Stats()
	if st.Ticks == 0 || st.Audits == 0 || st.Placed == 0 || st.Completed == 0 {
		t.Fatalf("harness observed nothing: %+v", st)
	}
	if st.EnergyJ <= 0 {
		t.Errorf("harness energy integral = %v", st.EnergyJ)
	}
	if st.Completed < res.Completed {
		t.Errorf("harness saw %d completions, result reports %d", st.Completed, res.Completed)
	}
	if st.Outstanding != s.Unfinished()-s.queue.Len() {
		t.Errorf("outstanding ledgers = %d, running jobs = %d", st.Outstanding, s.Unfinished()-s.queue.Len())
	}
}

// TestWarmupBoundaryCompletionExcluded is the regression test for the
// warmup-boundary inconsistency: a job completing exactly at the warmup
// instant used to be counted as a completion (completeJob tested t >=
// Warmup) while its busy segment had zero post-warmup measure
// (advanceSocketTo clips with t > Warmup) — a completed job with no
// recorded work or energy. Both now use the strict comparison: the boundary
// instant has zero measure, so the completion is excluded too.
func TestWarmupBoundaryCompletionExcluded(t *testing.T) {
	bench := workload.ByClass(workload.Storage)[0]
	if bench.RelPerf(1900) != 1 {
		t.Fatalf("RelPerf(FMax) = %v, want exactly 1", bench.RelPerf(1900))
	}
	cf, _ := sched.ByName("CF", 1)
	cfg := Config{
		Scheduler: cf,
		Source:    &listSource{arrivals: []listArrival{{at: 0, bench: bench, nominal: 1.0}}},
		Duration:  2.0,
		Warmup:    1.0,
		// 0.25 s is exactly representable, so every tick instant and the
		// completion instant land on exact binary fractions.
		TickPeriod: 0.25,
	}
	res, s := runOne(t, cfg)
	if s.Arrived() != 1 {
		t.Fatalf("arrived = %d, want 1", s.Arrived())
	}
	// The job runs at FMax from t=0, so it completes at exactly t = 1.0 =
	// Warmup. The boundary instant has zero measure on both sides of the
	// accounting: zero completions recorded, zero energy, zero work.
	if res.Completed != 0 {
		t.Errorf("completion at the warmup instant recorded: Completed = %d, want 0", res.Completed)
	}
	if res.CompletedWorkSeconds != 0 {
		t.Errorf("CompletedWorkSeconds = %v, want 0", res.CompletedWorkSeconds)
	}
}

// TestHarnessDetectsCorruptedState corrupts live simulator state mid-run
// and asserts the harness reports it — the harness must be able to fail, or
// green runs mean nothing. (The doneAt-cache and heap audits are covered by
// synthetic unit tests in internal/check: the simulator re-derives both
// from job state every advance, so an externally injected corruption there
// self-heals before the next audit can see it.)
func TestHarnessDetectsCorruptedState(t *testing.T) {
	// corruptOne runs a checked simulation, applying corrupt to the first
	// busy socket found after t=1.0, and returns the harness.
	corruptOne := func(t *testing.T, corrupt func(s *Simulator, i int)) *check.Checks {
		t.Helper()
		h := check.New()
		cfg := smallConfig("CF", 0.5, workload.Storage)
		cfg.Checks = h
		corrupted := false
		cfg.Probe = func(s *Simulator, now units.Seconds) {
			if corrupted || now < 1.0 {
				return
			}
			for i := range s.jobs {
				if s.jobs[i] != nil {
					corrupt(s, i)
					corrupted = true
					return
				}
			}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		if !corrupted {
			t.Skip("no busy socket found to corrupt")
		}
		return h
	}
	t.Run("inflated-work", func(t *testing.T) {
		// Extra remaining work silently stretches the job: the ledger
		// accrues more than NominalDuration by the time it completes.
		h := corruptOne(t, func(s *Simulator, i int) {
			s.jobs[i].Work += 0.01
		})
		if n := countViolations(h, "work-conservation"); n == 0 {
			t.Errorf("inflated remaining work not detected; violations: %v", h.Violations())
		}
	})
	t.Run("rewound-frontier", func(t *testing.T) {
		// A rewound lastUpdate double-counts the socket's next segment:
		// the energy coverage frontier no longer tiles.
		h := corruptOne(t, func(s *Simulator, i int) {
			s.sockets[i].lastUpdate -= 0.0005
		})
		if n := countViolations(h, "energy-conservation"); n == 0 {
			t.Errorf("rewound accounting frontier not detected; violations: %v", h.Violations())
		}
	})
}

// TestMigrationWorkConservation forces exactly one migration and lets the
// harness close the ledger: the migrated job's accrued work must equal
// NominalDuration + Migration.Cost (any mismatch is a work-conservation
// violation, which runOne turns into a failure).
func TestMigrationWorkConservation(t *testing.T) {
	bench := workload.ByClass(workload.Computation)[0]
	hf, _ := sched.ByName("HF", 1)
	h := check.New()
	cfg := Config{
		Scheduler: hf,
		Server:    geometry.UncoupledPair(),
		Source:    &listSource{arrivals: []listArrival{{at: 0, bench: bench, nominal: 0.5}}},
		Duration:  2.0,
		Warmup:    0.1,
		Migration: MigrationConfig{Period: 0.005},
		Checks:    h,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-heat socket 1: HF places the job there, it throttles, and the
	// first migration pass moves it to the cool socket 0 for a >=200 MHz
	// predicted gain. Once on the cool socket it runs at the boost ceiling,
	// so no further pass touches it.
	s.amb[1] = 70
	s.hist[1] = 70
	res := s.Run()
	if err := h.Err(); err != nil {
		t.Errorf("invariant violations: %v", err)
	}
	if s.Migrations() != 1 {
		t.Fatalf("migrations = %d, want exactly 1", s.Migrations())
	}
	if st := h.Stats(); st.Migrations != 1 {
		t.Errorf("harness observed %d migrations", st.Migrations)
	}
	if res.Completed != 1 {
		t.Errorf("completed = %d, want 1", res.Completed)
	}
}

// TestCheckedTraceReplay runs a trace-replay configuration under the
// harness: the replayed job stream must satisfy every invariant too.
func TestCheckedTraceReplay(t *testing.T) {
	mix := workload.ClassMix(workload.GeneralPurpose)
	tr := trace.Capture(mix, 180, 0.5, 123, 2.0)
	cf, _ := sched.ByName("CF", 1)
	cfg := Config{
		Scheduler: cf,
		Source:    trace.NewPlayer(tr),
		Duration:  2.0,
		Warmup:    0.2,
		Mix:       mix,
		Load:      0.5,
	}
	_, s := runOne(t, cfg)
	if s.Arrived() == 0 {
		t.Fatal("replay produced no arrivals")
	}
}

// TestCheckedMigrationRun runs a migration-heavy hot-inlet configuration
// under the harness end to end.
func TestCheckedMigrationRun(t *testing.T) {
	cfg := smallConfig("CF", 0.7, workload.Computation)
	cfg.Duration = 3
	cfg.Warmup = 1
	cfg.SinkTau = 0.4
	cfg.Airflow.Inlet = 40
	cfg.Migration = MigrationConfig{Period: 0.02}
	_, s := runOne(t, cfg)
	if s.Migrations() == 0 {
		t.Skip("no migrations triggered; covered by TestMigrationMovesThrottledTailJobs")
	}
}

// TestTickPeriodMetamorphic: completions are event-exact (jobs finish
// between ticks at their cached instants), so on a run with no thermal
// throttling the tick granularity must not change what completes. Storage
// jobs at 15% load on a cool inlet run at FMax from placement to
// completion, making the two tick periods bit-identical in every completion
// instant.
func TestTickPeriodMetamorphic(t *testing.T) {
	run := func(tick units.Seconds) metrics.Result {
		r, _ := sched.ByName("Random", 1)
		cfg := Config{
			Scheduler:  r,
			Mix:        workload.ClassMix(workload.Storage),
			Load:       0.15,
			Seed:       7,
			Duration:   2.0,
			Warmup:     0.5,
			TickPeriod: tick,
		}
		res, _ := runOne(t, cfg)
		return res
	}
	coarse := run(0.001)
	fine := run(0.0005)
	if coarse.Completed == 0 {
		t.Fatal("no completions at 15% load")
	}
	if coarse.Completed != fine.Completed {
		t.Errorf("Completed changed with tick period: %d at 1ms vs %d at 0.5ms",
			coarse.Completed, fine.Completed)
	}
	if coarse.MeanExpansion != fine.MeanExpansion {
		t.Errorf("MeanExpansion changed with tick period: %v vs %v",
			coarse.MeanExpansion, fine.MeanExpansion)
	}
}
