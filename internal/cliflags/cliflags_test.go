package cliflags

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newSimSet(t *testing.T) (*flag.FlagSet, *Sim) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := AddSim(fs, SimDefaults{
		Scenario: "sut-180", Sched: "CP", Workload: "GP",
		Load: 0.5, Duration: 20, Seed: 1,
	})
	return fs, s
}

// Without -scenario, the tool's flag defaults apply in full — the
// pre-scenario invocation behaviour.
func TestResolveDefaultsWithoutScenario(t *testing.T) {
	fs, s := newSimSet(t)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	sc, seed, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Scheduler.Name != "CP" || sc.Workload.Class != "GP" || sc.Workload.Load != 0.5 {
		t.Errorf("defaults not applied: %+v", sc)
	}
	if sc.Run.DurationS != 20 {
		t.Errorf("duration = %v, want 20", sc.Run.DurationS)
	}
	if seed != 1 {
		t.Errorf("seed = %d, want 1", seed)
	}
}

// With an explicit -scenario, only explicitly set flags override the file.
func TestResolveScenarioWinsOverFlagDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonc")
	src := `{
  "version": 1,
  "name": "file-scenario",
  "topology": {"rows": 2, "lanes": 1, "depth": 2},
  "workload": {"class": "Storage", "load": 0.9},
  "scheduler": {"name": "Random"},
  "run": {"seeds": [11], "duration_s": 3}
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	fs, s := newSimSet(t)
	if err := fs.Parse([]string{"-scenario", path, "-load", "0.4"}); err != nil {
		t.Fatal(err)
	}
	sc, seed, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Scheduler.Name != "Random" {
		t.Errorf("scheduler = %q: flag default clobbered the scenario", sc.Scheduler.Name)
	}
	if sc.Workload.Class != "Storage" {
		t.Errorf("class = %q: flag default clobbered the scenario", sc.Workload.Class)
	}
	if sc.Workload.Load != 0.4 {
		t.Errorf("load = %v: explicit flag should win", sc.Workload.Load)
	}
	if sc.Run.DurationS != 3 {
		t.Errorf("duration = %v, want the scenario's 3", sc.Run.DurationS)
	}
	if seed != 11 {
		t.Errorf("seed = %d, want the scenario's 11", seed)
	}
}

// A -trace without explicit -duration lets the trace horizon define the
// run length.
func TestResolveTraceResetsDuration(t *testing.T) {
	fs, s := newSimSet(t)
	if err := fs.Parse([]string{"-trace", "jobs.dstr"}); err != nil {
		t.Fatal(err)
	}
	sc, _, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Workload.Trace != "jobs.dstr" {
		t.Errorf("trace = %q", sc.Workload.Trace)
	}
	if sc.Run.DurationS != 0 {
		t.Errorf("duration = %v, want 0 (derive from trace horizon)", sc.Run.DurationS)
	}

	fs2, s2 := newSimSet(t)
	if err := fs2.Parse([]string{"-trace", "jobs.dstr", "-duration", "5"}); err != nil {
		t.Fatal(err)
	}
	sc2, _, err := s2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Run.DurationS != 5 {
		t.Errorf("duration = %v, want the explicit 5", sc2.Run.DurationS)
	}
}

// The -engine flag reaches the scenario's Engine block, and the scenario's
// own engine mode survives when the flag is left unset.
func TestResolveEngineFlags(t *testing.T) {
	fs, s := newSimSet(t)
	if err := fs.Parse([]string{"-engine", "serial"}); err != nil {
		t.Fatal(err)
	}
	sc, _, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Engine.Mode != "serial" {
		t.Errorf("engine block = %+v, want serial", sc.Engine)
	}

	path := filepath.Join(t.TempDir(), "eng.jsonc")
	src := `{
  "version": 1,
  "name": "engine-scenario",
  "topology": {"rows": 2, "lanes": 1, "depth": 2},
  "scheduler": {"name": "Random"},
  "engine": {"mode": "serial"}
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fs2, s2 := newSimSet(t)
	if err := fs2.Parse([]string{"-scenario", path}); err != nil {
		t.Fatal(err)
	}
	sc2, _, err := s2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Engine.Mode != "serial" {
		t.Errorf("scenario engine block overridden by unset flags: %+v", sc2.Engine)
	}

	fs3, s3 := newSimSet(t)
	if err := fs3.Parse([]string{"-scenario", path, "-engine", "event"}); err != nil {
		t.Fatal(err)
	}
	sc3, _, err := s3.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sc3.Engine.Mode != "event" {
		t.Errorf("explicit -engine did not override the scenario: %+v", sc3.Engine)
	}
}

// The flags and modes removed with the intra-run tick pool fail closed:
// -engine.workers and -engine.stride are no longer defined, and the old
// -engine auto/parallel values fail validation naming the surviving modes.
func TestRemovedEngineFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-engine.workers", "4"},
		{"-engine.stride", "off"},
	} {
		fs, _ := newSimSet(t)
		fs.SetOutput(io.Discard)
		if err := fs.Parse(args); err == nil {
			t.Errorf("parse accepted removed flag %v", args)
		}
	}
	for _, mode := range []string{"auto", "parallel"} {
		fs, s := newSimSet(t)
		if err := fs.Parse([]string{"-engine", mode}); err != nil {
			t.Fatal(err)
		}
		sc, _, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		err = sc.Validate()
		if err == nil {
			t.Errorf("-engine %s passed validation", mode)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "event") || !strings.Contains(msg, "serial") {
			t.Errorf("-engine %s: error %q does not name the surviving modes", mode, msg)
		}
	}
}
