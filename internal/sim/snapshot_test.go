package sim

import (
	"reflect"
	"testing"

	"densim/internal/airflow"
	"densim/internal/check"
	"densim/internal/sched"
	"densim/internal/units"
	"densim/internal/workload"
)

// snapConfig builds a fresh loaded run for the snapshot tests. Every call
// constructs a new scheduler instance, so reference and restored runs never
// share hidden state through the policy object.
func snapConfig(t *testing.T, schedName string, eng EngineConfig) Config {
	t.Helper()
	s, err := sched.ByName(schedName, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Scheduler: s,
		Airflow:   airflow.SUTParams(),
		Mix:       workload.ClassMix(workload.Computation),
		Load:      0.9,
		Seed:      11,
		Duration:  0.4,
		Warmup:    0.1,
		SinkTau:   1,
		Engine:    eng,
	}
}

// TestSnapshotRoundTrip is the snapshot property test: interrupting a run at
// an arbitrary tick boundary, serializing it, restoring the bytes into a
// freshly constructed simulator, and finishing must be byte-identical to the
// uninterrupted run — across stochastic and deterministic schedulers and
// across engines. reflect.DeepEqual over the float-bearing Result, no
// tolerances.
func TestSnapshotRoundTrip(t *testing.T) {
	engines := []struct {
		name string
		cfg  EngineConfig
	}{
		{"serial", EngineConfig{Mode: EngineSerial}},
		{"event", EngineConfig{}},
	}
	boundaries := []units.Seconds{0.05, 0.1, 0.25}
	for _, schedName := range []string{"CP", "Random", "A-Random", "CF"} {
		for _, eng := range engines {
			ref, err := New(snapConfig(t, schedName, eng.cfg))
			if err != nil {
				t.Fatal(err)
			}
			refRes := ref.Run()
			for _, at := range boundaries {
				src, err := New(snapConfig(t, schedName, eng.cfg))
				if err != nil {
					t.Fatal(err)
				}
				src.RunTo(at)
				data, err := src.Snapshot()
				if err != nil {
					t.Fatalf("%s/%s@%v: Snapshot: %v", schedName, eng.name, at, err)
				}
				dst, err := New(snapConfig(t, schedName, eng.cfg))
				if err != nil {
					t.Fatal(err)
				}
				if err := dst.Restore(data); err != nil {
					t.Fatalf("%s/%s@%v: Restore: %v", schedName, eng.name, at, err)
				}
				res := dst.Finish()
				if !reflect.DeepEqual(res, refRes) {
					t.Errorf("%s/%s@%v: restored run diverges from uninterrupted run\n got %+v\nwant %+v",
						schedName, eng.name, at, res, refRes)
				}
			}
		}
	}
}

// TestRunToFinishEquivalence pins the loop split itself: RunTo followed by
// Finish — with no snapshot in between — is the uninterrupted Run,
// bit-for-bit, even when RunTo lands mid-drain or after the horizon.
func TestRunToFinishEquivalence(t *testing.T) {
	ref, err := New(snapConfig(t, "CP", EngineConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	refRes := ref.Run()
	for _, at := range []units.Seconds{0.001, 0.1, 0.39, 1.0} {
		s, err := New(snapConfig(t, "CP", EngineConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		s.RunTo(at)
		if res := s.Finish(); !reflect.DeepEqual(res, refRes) {
			t.Errorf("RunTo(%v)+Finish diverges from Run\n got %+v\nwant %+v", at, res, refRes)
		}
	}
}

// TestSnapshotCrossDuration pins the warm-start property the experiment
// harness relies on: a snapshot taken during the warmup of a short run
// restores into a longer-horizon run of the same configuration (Duration is
// excluded from the config signature), and the result matches that longer
// run simulated from scratch.
func TestSnapshotCrossDuration(t *testing.T) {
	short := snapConfig(t, "CP", EngineConfig{})
	src, err := New(short)
	if err != nil {
		t.Fatal(err)
	}
	src.RunTo(short.Warmup)
	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	long := snapConfig(t, "CP", EngineConfig{})
	long.Duration = 0.6
	ref, err := New(long)
	if err != nil {
		t.Fatal(err)
	}
	refRes := ref.Run()

	long2 := snapConfig(t, "CP", EngineConfig{})
	long2.Duration = 0.6
	dst, err := New(long2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(data); err != nil {
		t.Fatalf("cross-duration Restore: %v", err)
	}
	if res := dst.Finish(); !reflect.DeepEqual(res, refRes) {
		t.Errorf("warm-started long run diverges from cold long run\n got %+v\nwant %+v", res, refRes)
	}
}

// TestSnapshotFailsClosed exercises the validation path: truncation at every
// layer, bit corruption anywhere in the buffer, a wrong magic, and a
// configuration mismatch must all reject without touching the simulator.
func TestSnapshotFailsClosed(t *testing.T) {
	src, err := New(snapConfig(t, "CP", EngineConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	src.RunTo(0.1)
	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Simulator {
		s, err := New(snapConfig(t, "CP", EngineConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if err := fresh().Restore(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	for _, n := range []int{0, 3, 7, 40, 47, len(data) / 2, len(data) - 1} {
		if err := fresh().Restore(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	for _, pos := range []int{0, 5, 10, 44, 50, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x40
		if err := fresh().Restore(bad); err == nil {
			t.Errorf("bit flip at byte %d accepted", pos)
		}
	}
	if err := fresh().Restore(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}

	other := snapConfig(t, "CP", EngineConfig{})
	other.Load = 0.5 // different run identity
	dst, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(data); err == nil {
		t.Error("snapshot from a different configuration accepted")
	}
	otherSched := snapConfig(t, "CF", EngineConfig{})
	dst2, err := New(otherSched)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst2.Restore(data); err == nil {
		t.Error("snapshot from a different scheduler accepted")
	}
}

// TestSnapshotRefusals pins the fail-closed gating: runs whose state the
// serializer cannot see — a non-snapshottable source or an installed
// invariant harness — must refuse to snapshot rather than capture a resume
// that would silently diverge.
func TestSnapshotRefusals(t *testing.T) {
	cfg := snapConfig(t, "CP", EngineConfig{})
	cfg.Checks = check.New()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("snapshot accepted with the invariant harness installed")
	}

	cfg = snapConfig(t, "CP", EngineConfig{})
	bench := workload.ByClass(workload.Computation)[0]
	cfg.Source = &listSource{arrivals: []listArrival{{at: 0, bench: bench, nominal: 0.01}}}
	cfg.Mix = workload.Mix{}
	cfg.Load = 0
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("snapshot accepted with a non-snapshottable source")
	}
}
