package sim

import (
	"testing"

	"densim/internal/airflow"
	"densim/internal/geometry"
	"densim/internal/sched"
	"densim/internal/units"
	"densim/internal/workload"
)

// benchServer builds one of the density-family topologies by name. The
// dimensions mirror the internal/scenario presets (half-density-90 and
// double-density-360): the same 15x2 lane grid at depth 3 and 12.
func benchServer(b *testing.B, name string) *geometry.Server {
	b.Helper()
	var (
		srv *geometry.Server
		err error
	)
	switch name {
	case "hd90":
		srv, err = geometry.DenseSystemWithSinks("hd90", 15, 2, 3, geometry.AlternatingSinks(3))
	case "dd360":
		srv, err = geometry.DenseSystemWithSinks("dd360", 15, 2, 12, geometry.AlternatingSinks(12))
	default:
		b.Fatalf("unknown bench topology %q", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// benchRunServer is benchRun on an arbitrary topology: one simulated second
// at the given load, Computation mix, SUT airflow parameters, under the
// given execution engine (zero value = the default event engine).
func benchRunServer(b *testing.B, srv *geometry.Server, schedName string, load float64, eng EngineConfig) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scheduler, err := sched.ByName(schedName, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{
			Server:    srv,
			Scheduler: scheduler,
			Airflow:   airflow.SUTParams(),
			Mix:       workload.ClassMix(workload.Computation),
			Load:      load,
			Seed:      uint64(i + 1),
			Duration:  1,
			Warmup:    0.1,
			SinkTau:   1,
			Engine:    eng,
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

// The density family: half-density-90 (DoC 3) and double-density-360
// (DoC 12), so the whole Table I sweep is on the perf radar, not just the
// 180-socket SUT. The bare names run the default event engine (what users
// get); the Serial suffix pins the reference so the event engine's delta is
// measurable in isolation (scripts/bench.sh smoke gates it).
func BenchmarkSimSecondHD90CF90(b *testing.B) {
	benchRunServer(b, benchServer(b, "hd90"), "CF", 0.9, EngineConfig{})
}
func BenchmarkSimSecondHD90CP90(b *testing.B) {
	benchRunServer(b, benchServer(b, "hd90"), "CP", 0.9, EngineConfig{})
}
func BenchmarkSimSecondDD360CF90(b *testing.B) {
	benchRunServer(b, benchServer(b, "dd360"), "CF", 0.9, EngineConfig{})
}
func BenchmarkSimSecondDD360CP90(b *testing.B) {
	benchRunServer(b, benchServer(b, "dd360"), "CP", 0.9, EngineConfig{})
}

func BenchmarkSimSecondHD90CP90Serial(b *testing.B) {
	benchRunServer(b, benchServer(b, "hd90"), "CP", 0.9, EngineConfig{Mode: EngineSerial})
}
func BenchmarkSimSecondDD360CP90Serial(b *testing.B) {
	benchRunServer(b, benchServer(b, "dd360"), "CP", 0.9, EngineConfig{Mode: EngineSerial})
}
func BenchmarkSimSecondDD360CF90Serial(b *testing.B) {
	benchRunServer(b, benchServer(b, "dd360"), "CF", 0.9, EngineConfig{Mode: EngineSerial})
}

// BenchmarkSimSecondDD360CP90Burst isolates the arrival/completion event path
// the busy knee stresses: a burst of 90 short jobs slams the double-density
// system every 50 ms, so the run is dominated by queueing, placement picks,
// and completions rather than by long thermal plateaus.
func BenchmarkSimSecondDD360CP90Burst(b *testing.B) {
	b.ReportAllocs()
	srv := benchServer(b, "dd360")
	bench := workload.ByClass(workload.Computation)[0]
	var arrivals []listArrival
	for t := 0.0; t < 1.0; t += 0.05 {
		for k := 0; k < 90; k++ {
			arrivals = append(arrivals, listArrival{at: units.Seconds(t), bench: bench, nominal: 0.02})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheduler, err := sched.ByName("CP", 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{
			Server:    srv,
			Scheduler: scheduler,
			Airflow:   airflow.SUTParams(),
			Source:    &listSource{arrivals: arrivals},
			Seed:      uint64(i + 1),
			Duration:  1,
			Warmup:    0.1,
			SinkTau:   1,
		}
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res := s.Run(); res.Completed == 0 {
			b.Fatal("no completions")
		}
	}
}

// BenchmarkSimSecondIdleSerial pins the pristine serial engine on the idle
// SUT run: the baseline that BenchmarkSimSecondIdle (default engine, whose
// whole run is a dead tail the gap advance skips) is measured against, in
// BENCH_PR5.json and by scripts/bench.sh smoke.
func BenchmarkSimSecondIdleSerial(b *testing.B) {
	benchRunServer(b, geometry.SUT(), "CF", 0, EngineConfig{Mode: EngineSerial})
}
