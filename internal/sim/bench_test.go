package sim

import (
	"testing"

	"densim/internal/airflow"
	"densim/internal/sched"
	"densim/internal/telemetry"
	"densim/internal/workload"
)

// benchRun executes one simulated second on the full SUT at the given load
// under the given scheduler — the simulator's core cost unit. A non-nil tel
// instruments every run (the enabled-overhead benchmark).
func benchRun(b *testing.B, schedName string, load float64, tel *telemetry.Telemetry) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scheduler, err := sched.ByName(schedName, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{
			Scheduler: scheduler,
			Airflow:   airflow.SUTParams(),
			Mix:       workload.ClassMix(workload.Computation),
			Load:      load,
			Seed:      uint64(i + 1),
			Duration:  1,
			Warmup:    0.1,
			SinkTau:   1,
			Telemetry: tel,
		}
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		if load > 0 && res.Completed == 0 {
			b.Fatal("no completions")
		}
	}
}

func BenchmarkSimSecondIdle(b *testing.B)         { benchRun(b, "CF", 0, nil) }
func BenchmarkSimSecondCF50(b *testing.B)         { benchRun(b, "CF", 0.5, nil) }
func BenchmarkSimSecondCF90(b *testing.B)         { benchRun(b, "CF", 0.9, nil) }
func BenchmarkSimSecondCP50(b *testing.B)         { benchRun(b, "CP", 0.5, nil) }
func BenchmarkSimSecondCP90(b *testing.B)         { benchRun(b, "CP", 0.9, nil) }
func BenchmarkSimSecondPredictive90(b *testing.B) { benchRun(b, "Predictive", 0.9, nil) }

// BenchmarkSimSecondPredictive50 is the Predictive half of scripts/bench.sh
// smoke's memo gate: its ratio to BenchmarkSimSecondCF50 stays low only
// while the own-frequency memo engages.
func BenchmarkSimSecondPredictive50(b *testing.B) { benchRun(b, "Predictive", 0.5, nil) }

// BenchmarkSimSecondCF90Telemetry is BenchmarkSimSecondCF90 with the full
// observability layer installed — compare the two to measure the enabled
// overhead (the PR's contract is ≤5% wall clock; see BENCH_PR3.json).
func BenchmarkSimSecondCF90Telemetry(b *testing.B) {
	benchRun(b, "CF", 0.9, telemetry.New("bench"))
}
