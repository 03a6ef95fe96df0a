package sim

import (
	"os"
	"path/filepath"

	"densim/internal/metrics"
)

// RunWarm executes the simulation to completion, warm-starting from the
// snapshot cache in dir: the one cache-or-cold contract behind every
// warm-start layer (experiments' and the fleet's WarmDir). A cache hit
// restores the saved warmup state and simulates only the measured window; a
// miss simulates the warmup once, captures it as dir/<SnapshotKey>.dsnp, and
// finishes — so the next run with the same identity forks from the capture.
// Any failure along the warm path (unsnapshottable run, corrupt or
// mismatched capture, unwritable cache) degrades to the cold path, never to
// an error: the cache is a pure accelerator and the result is bit-identical
// to Run either way. dir == "" runs cold, and so do checked or
// telemetry-instrumented runs, whose accumulated history a restore would
// skip.
func (s *Simulator) RunWarm(dir string) metrics.Result {
	if dir == "" || s.cfg.Checks != nil || s.cfg.Telemetry != nil {
		return s.Run()
	}
	key, err := s.SnapshotKey()
	if err != nil {
		return s.Run()
	}
	path := filepath.Join(dir, key+".dsnp")
	if data, err := os.ReadFile(path); err == nil {
		if err := s.Restore(data); err == nil {
			return s.Finish()
		}
		// Restore fails closed without touching the simulator, so a bad
		// capture leaves a pristine cold run that rewrites it below.
	}
	s.RunTo(s.cfg.Warmup)
	if data, err := s.Snapshot(); err == nil {
		WriteFileAtomic(path, data) // best-effort: a lost write only costs the next warmup
	}
	return s.Finish()
}

// WriteFileAtomic writes data through a temp file plus rename, so a crashed
// run never leaves a half-written snapshot at path and concurrent runs racing
// on one cache entry each land a complete capture (a partial file would be
// rejected by the snapshot digest anyway; this keeps it from existing at
// all).
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
