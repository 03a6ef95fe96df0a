package fleet

// Shard-scaling benchmarks: the same 16-chassis fleet run at different
// worker-pool bounds, open loop (BenchmarkFleet16) and closed loop at a
// 0.25s epoch (BenchmarkFleetEpoch16). Results are bit-identical across the
// workers axis (the equivalence suite proves that); this measures the only
// thing workers are allowed to change — wall-clock time — and, between the
// two benchmarks, the epochs' observe/dispatch fence overhead over the
// executor's zero-epoch case.
// BENCH_PR8.json and BENCH_PR9.json record runs of these benchmarks;
// scripts/bench.sh fleetgate holds the closed/open ratio in CI.
// BenchmarkFleet2x2 is the profiling target for the shipped fleet preset:
//
//	scripts/profile.sh BenchmarkFleet2x2 ./internal/fleet/

import (
	"fmt"
	"testing"

	"densim/internal/scenario"
)

func benchFleet16(b *testing.B, sc *scenario.Scenario) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f, err := New(sc, 1)
			if err != nil {
				b.Fatal(err)
			}
			f.SetWorkers(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFleet16(b *testing.B) {
	benchFleet16(b, uniformFleet(16, "least-loaded"))
}

func BenchmarkFleetEpoch16(b *testing.B) {
	sc := uniformFleet(16, "least-loaded")
	sc.Fleet.Epoch = &scenario.FleetEpoch{PeriodS: 0.25}
	benchFleet16(b, sc)
}

// BenchmarkFleet64 scales the open-loop shard axis to a 64-chassis fleet —
// large enough that per-item dispatch overhead (the pre-batching design's
// channel send per chassis) is visible against real per-chassis work.
func BenchmarkFleet64(b *testing.B) {
	benchFleet16(b, uniformFleet(64, "least-loaded"))
}

// BenchmarkFleet2x2 runs the fleet-2x2 preset over a 4 s horizon the way the
// end-to-end fleet workload does: each op is a warm-started open-loop run
// (the cache is filled before the timer starts) followed by the same fleet
// closed loop at 0.25 s epochs, at the default worker count. Reported
// allocations cover both runs.
func BenchmarkFleet2x2(b *testing.B) {
	load := func(epoch float64) *Fleet {
		sc, err := scenario.Preset("fleet-2x2")
		if err != nil {
			b.Fatal(err)
		}
		sc.Run.DurationS = 4
		if epoch > 0 {
			sc.Fleet.Epoch = &scenario.FleetEpoch{PeriodS: epoch}
		}
		f, err := New(sc, 1)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	open, closed := load(0), load(0.25)
	open.WarmDir = b.TempDir()
	if _, err := open.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := open.Run(); err != nil {
			b.Fatal(err)
		}
		if _, err := closed.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
