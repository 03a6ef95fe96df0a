package sim

import (
	"strings"
	"testing"

	"densim/internal/geometry"
	"densim/internal/units"
	"densim/internal/workload"
)

func TestRecorderCapturesSeries(t *testing.T) {
	rec := NewRecorder(0.1)
	cfg := smallConfig("CF", 0.6, workload.Computation)
	cfg.Duration = 1
	cfg.Warmup = 0.1
	cfg.SinkTau = 0.3
	cfg.Probe = rec.Probe
	_, s := runOne(t, cfg)
	samples := rec.Samples()
	if len(samples) < 8 {
		t.Fatalf("captured %d samples over ~1s at 0.1s interval", len(samples))
	}
	depth := s.Server().Depth
	for _, smp := range samples {
		if len(smp.Ambient) != depth+1 {
			t.Fatalf("sample has %d zones", len(smp.Ambient)-1)
		}
		for z := 1; z <= depth; z++ {
			if smp.Ambient[z] < 17 || smp.Ambient[z] > 120 {
				t.Fatalf("zone %d ambient %v out of range", z, smp.Ambient[z])
			}
			if smp.Busy[z] < 0 || smp.Busy[z] > 30 {
				t.Fatalf("zone %d busy %d out of range", z, smp.Busy[z])
			}
		}
	}
	// The field warms up: the last sample's zone-6 ambient exceeds the first's.
	first, last := samples[0], samples[len(samples)-1]
	if last.Ambient[depth] <= first.Ambient[depth] {
		t.Errorf("zone %d ambient did not warm: %v -> %v", depth, first.Ambient[depth], last.Ambient[depth])
	}
}

func TestRecorderCSV(t *testing.T) {
	rec := NewRecorder(0.2)
	cfg := smallConfig("Random", 0.3, workload.Storage)
	cfg.Duration = 0.6
	cfg.Warmup = 0.1
	cfg.Probe = rec.Probe
	runOne(t, cfg)
	var b strings.Builder
	if err := rec.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "time_s,zone,") {
		t.Errorf("missing header: %q", out[:40])
	}
	lines := strings.Count(out, "\n")
	want := len(rec.Samples())*6 + 1
	if lines != want {
		t.Errorf("CSV lines = %d, want %d", lines, want)
	}
}

// TestRecorderSkipsDeadSockets pins the busy and rel_freq columns to the
// sockets that actually run a job. A dead socket (the chaos timeline kills
// socket 7 at 0.20 s) reports Busy so schedulers skip it, but it runs
// nothing: counting it would overstate its zone's busy count and average
// its 0 MHz into the zone's relative frequency.
func TestRecorderSkipsDeadSockets(t *testing.T) {
	rec := NewRecorder(0.01)
	cfg := faultConfig(t, "CP", EngineConfig{}, nil)
	var wantBusy [][]int
	var wantRel [][]float64
	deadSamples := 0
	cfg.Probe = func(s *Simulator, now units.Seconds) {
		n := len(rec.Samples())
		rec.Probe(s, now)
		if len(rec.Samples()) == n {
			return
		}
		busy := make([]int, s.srv.Depth+1)
		rel := make([]float64, s.srv.Depth+1)
		for i, j := range s.jobs {
			if j != nil {
				z := s.srv.Zone(geometry.SocketID(i))
				busy[z]++
				rel[z] += float64(s.freq[i]) / 1900
			}
		}
		for z := range rel {
			if busy[z] > 0 {
				rel[z] /= float64(busy[z])
			}
		}
		wantBusy = append(wantBusy, busy)
		wantRel = append(wantRel, rel)
		if s.flt.deadCount > 0 {
			deadSamples++
		}
	}
	runOne(t, cfg)
	if deadSamples == 0 {
		t.Fatal("no sample taken while a socket was dead")
	}
	for k, smp := range rec.Samples() {
		for z := 1; z < len(smp.Busy); z++ {
			if smp.Busy[z] != wantBusy[k][z] || smp.RelFreq[z] != wantRel[k][z] {
				t.Fatalf("sample %d (t=%.3f) zone %d: busy %d rel_freq %v, want %d running %v",
					k, float64(smp.At), z, smp.Busy[z], smp.RelFreq[z], wantBusy[k][z], wantRel[k][z])
			}
		}
	}
}

func TestRecorderPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRecorder(0) did not panic")
		}
	}()
	NewRecorder(0)
}
