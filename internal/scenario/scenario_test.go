package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"densim/internal/check"
	"densim/internal/sim"
)

// TestPresetRoundTrip: decode(encode(preset)) must reproduce every preset
// exactly — the format loses nothing.
func TestPresetRoundTrip(t *testing.T) {
	for _, name := range Names() {
		sc, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%s): %v", name, err)
		}
		var buf bytes.Buffer
		if err := sc.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v\n%s", name, err, buf.String())
		}
		if !reflect.DeepEqual(sc, back) {
			t.Errorf("%s: round trip changed the scenario:\nbefore %+v\nafter  %+v", name, sc, back)
		}
	}
}

// TestFullRoundTrip exercises every field through the codec, not just the
// ones presets use.
func TestFullRoundTrip(t *testing.T) {
	sc := &Scenario{
		Version:   CurrentVersion,
		Name:      "everything",
		Notes:     "all fields set",
		Topology:  Topology{Rows: 3, Lanes: 2, Depth: 4},
		Airflow:   Airflow{InletC: 25, FlowPerLaneCFM: 7, Concentration: 1.5, MixLengthIn: 40, AuxPerSocketW: 5},
		Chip:      Chip{TDPW: 30, Sinks: "30fin", DisableBoost: true},
		Workload:  Workload{Class: "Storage", Load: 0.75, Trace: "jobs.dstr"},
		Scheduler: Scheduler{Name: "Random", Seed: 42, MigrationPeriodS: 0.5, MigrationCostS: 0.001},
		Run:       Run{Seeds: []uint64{3, 4}, DurationS: 12, WarmupS: 2, TickPeriodS: 0.002, SinkTauS: 5, ChipTauS: 0.01, DrainLimitS: 30},
		Engine:    Engine{Mode: "serial"},
		Checks:    true,
		Telemetry: true,
	}
	var buf bytes.Buffer
	if err := sc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("round trip changed the scenario:\nbefore %+v\nafter  %+v", sc, back)
	}
	// Second encode must be byte-identical: encoding is deterministic.
	var buf2 bytes.Buffer
	if err := back.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("re-encode differs:\nfirst:\n%s\nsecond:\n%s", buf.String(), buf2.String())
	}
}

// TestDecodeRejectsUnknownFields: typos in scenario files must fail loudly,
// at every nesting level.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	cases := []string{
		`{"version":1,"name":"x","topology":{"preset":"sut"},"bogus":1}`,
		`{"version":1,"name":"x","topology":{"preset":"sut","sockets":180}}`,
		`{"version":1,"name":"x","topology":{"preset":"sut"},"run":{"duration":5}}`,
	}
	for _, src := range cases {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("decode accepted unknown field in %s", src)
		}
	}
}

// TestDecodeRejectsRemovedEngineValues: the engine modes and fields removed
// with the intra-run tick pool fail closed, and the error names the two
// surviving modes so an old file points its author at the fix.
func TestDecodeRejectsRemovedEngineValues(t *testing.T) {
	for _, engine := range []string{
		`{"mode":"auto"}`,
		`{"mode":"parallel"}`,
		`{"workers":2}`,
		`{"stride":"on"}`,
	} {
		src := `{"version":1,"name":"x","topology":{"preset":"sut"},"engine":` + engine + `}`
		_, err := Decode(strings.NewReader(src))
		if err == nil {
			t.Errorf("decode accepted removed engine value %s", engine)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "event") || !strings.Contains(msg, "serial") {
			t.Errorf("engine %s: error %q does not name the surviving modes", engine, msg)
		}
	}
	for _, mode := range []string{"", "event", "serial"} {
		src := `{"version":1,"name":"x","topology":{"preset":"sut"},"engine":{"mode":"` + mode + `"}}`
		if _, err := Decode(strings.NewReader(src)); err != nil {
			t.Errorf("engine mode %q rejected: %v", mode, err)
		}
	}
}

// TestDecodeRejectsTrailingData: a second object after the scenario is a
// malformed file.
func TestDecodeRejectsTrailingData(t *testing.T) {
	src := `{"version":1,"name":"x","topology":{"preset":"sut"}} {"more":true}`
	if _, err := Decode(strings.NewReader(src)); err == nil {
		t.Error("decode accepted trailing data")
	}
}

// TestDecodeStripsComments: // comments vanish outside strings and survive
// inside them.
func TestDecodeStripsComments(t *testing.T) {
	src := `{
  // the format version
  "version": 1,
  "name": "commented", // trailing comment
  "notes": "a // url-ish http://host note",
  "topology": {"preset": "sut"}
}`
	sc, err := Decode(strings.NewReader(src))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sc.Name != "commented" {
		t.Errorf("name = %q", sc.Name)
	}
	if want := "a // url-ish http://host note"; sc.Notes != want {
		t.Errorf("notes = %q, want %q (comment stripping ate a string)", sc.Notes, want)
	}
}

// TestValidateRejects covers the declarative-level error paths.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"bad version", func(s *Scenario) { s.Version = 99 }},
		{"missing name", func(s *Scenario) { s.Name = "" }},
		{"unknown topology preset", func(s *Scenario) { s.Topology.Preset = "rack-9000" }},
		{"preset with dims", func(s *Scenario) { s.Topology = Topology{Preset: "sut", Depth: 6} }},
		{"no dims", func(s *Scenario) { s.Topology = Topology{Rows: 2} }},
		{"bad sinks", func(s *Scenario) { s.Chip.Sinks = "copper" }},
		{"negative load", func(s *Scenario) { s.Workload.Load = -0.5 }},
		{"unknown class", func(s *Scenario) { s.Workload.Class = "AI" }},
		{"negative tdp", func(s *Scenario) { s.Chip.TDPW = -1 }},
		{"negative airflow", func(s *Scenario) { s.Airflow.FlowPerLaneCFM = -6 }},
		{"negative run field", func(s *Scenario) { s.Run.SinkTauS = -1 }},
		{"warmup past duration", func(s *Scenario) { s.Run.DurationS = 5; s.Run.WarmupS = 5 }},
		{"unknown engine mode", func(s *Scenario) { s.Engine.Mode = "turbo" }},
	}
	for _, tc := range cases {
		sc, err := Preset("sut-180")
		if err != nil {
			t.Fatal(err)
		}
		tc.mut(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid scenario", tc.name)
		}
	}
}

// TestLoadResolvesPresetAndFile: the single -scenario entry point accepts
// preset names, prefixed preset refs, and file paths.
func TestLoadResolvesPresetAndFile(t *testing.T) {
	fromName, err := Load("sut-180")
	if err != nil {
		t.Fatalf("Load(sut-180): %v", err)
	}
	fromPrefix, err := Load("preset:sut-180")
	if err != nil {
		t.Fatalf("Load(preset:sut-180): %v", err)
	}
	if !reflect.DeepEqual(fromName, fromPrefix) {
		t.Error("preset name and preset: prefix resolved differently")
	}

	path := filepath.Join(t.TempDir(), "custom.jsonc")
	src := `{
  // a file-based scenario
  "version": 1,
  "name": "from-file",
  "topology": {"rows": 2, "lanes": 1, "depth": 2}
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := Load(path)
	if err != nil {
		t.Fatalf("Load(file): %v", err)
	}
	if fromFile.Name != "from-file" {
		t.Errorf("file scenario name = %q", fromFile.Name)
	}

	if _, err := Load("no-such-preset-or-file"); err == nil {
		t.Error("Load accepted a nonexistent ref")
	}
}

// TestExampleFileMatchesPreset: the commented example scenario shipped
// under examples/ must stay equivalent to the sut-180 preset it documents
// (modulo the preset's notes string).
func TestExampleFileMatchesPreset(t *testing.T) {
	fromFile, err := Load(filepath.Join("..", "..", "examples", "scenarios", "sut-180.jsonc"))
	if err != nil {
		t.Fatalf("Load(example): %v", err)
	}
	preset, err := Preset("sut-180")
	if err != nil {
		t.Fatal(err)
	}
	fromFile.Notes, preset.Notes = "", ""
	if !reflect.DeepEqual(fromFile, preset) {
		t.Errorf("example file drifted from the preset:\nfile   %+v\npreset %+v", fromFile, preset)
	}
}

// TestPresetCompleteness: every shipped preset must build its substrate
// objects and survive one simulated second under the invariant harness.
func TestPresetCompleteness(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := sc.Server()
			if err != nil {
				t.Fatalf("Server: %v", err)
			}
			if srv.NumSockets() == 0 {
				t.Fatal("empty topology")
			}
			// Shrink to one simulated second so the suite stays fast; a
			// short sink tau lets the thermal field move inside the window.
			sc.Run.DurationS = 1
			sc.Run.WarmupS = 0.3
			sc.Run.SinkTauS = 0.5
			cfg, err := sc.Config(sc.FirstSeed())
			if err != nil {
				t.Fatalf("Config: %v", err)
			}
			h := check.New()
			cfg.Checks = h
			s, err := sim.New(cfg)
			if err != nil {
				t.Fatalf("sim.New: %v", err)
			}
			res := s.Run()
			if err := h.Err(); err != nil {
				t.Errorf("invariant violation: %v", err)
			}
			if res.Completed == 0 {
				t.Error("no jobs completed in 1 simulated second")
			}
		})
	}
}

// TestSchedulerSeedDefaultsToRunSeed: Scheduler.Seed 0 follows the run
// seed, a set value pins it.
func TestSchedulerSeedDefaultsToRunSeed(t *testing.T) {
	sc, err := Preset("sut-180")
	if err != nil {
		t.Fatal(err)
	}
	sc.Scheduler.Name = "Random" // stochastic: seed matters
	sc.Run.DurationS, sc.Run.WarmupS, sc.Run.SinkTauS = 1, 0.3, 0.5

	run := func(seed uint64, pin uint64) float64 {
		sc.Scheduler.Seed = pin
		cfg, err := sc.Config(seed)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run().MeanExpansion
	}
	// Pinned scheduler seed, same run seed: identical.
	if a, b := run(7, 1), run(7, 1); a != b {
		t.Errorf("same seeds gave different results: %v vs %v", a, b)
	}
	// Determinism with the run-seed default too.
	if a, b := run(7, 0), run(7, 0); a != b {
		t.Errorf("run-seed default not deterministic: %v vs %v", a, b)
	}
}
