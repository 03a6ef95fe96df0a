package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"

	"densim/internal/geometry"
	"densim/internal/metrics"
)

// sourceIdentifier lets a custom workload source contribute an identity hash
// to the config signature. Without it, two runs differing only in their
// injected sources share a signature — the fleet layer feeds each chassis a
// distinct pre-dispatched arrival slice through the same source type, and a
// warm-start cache keyed on the signature alone would silently restore one
// chassis's warmup into another. Sources that implement it (fleet replay
// sources hash their arrival records) get per-content signatures; sources
// that don't keep the historical signature, so existing captures stay valid.
type sourceIdentifier interface {
	SourceSignature() uint64
}

// cfgSig hashes the run's identity. Two simulators with equal signatures
// follow bit-identical trajectories up to any instant both horizons cover,
// so a snapshot from one resumes exactly in the other. It is not part of the
// payload walk: it encodes values derived from the config, never decoded.
func (s *Simulator) cfgSig() [32]byte {
	c := &snapCodec{enc: true}
	ints := func(vs ...int) {
		for i := range vs {
			u64(c, &vs[i])
		}
	}
	floats := func(vs ...float64) {
		for i := range vs {
			f64(c, &vs[i])
		}
	}
	cfg, srv := &s.cfg, s.srv
	// Topology.
	c.str(&srv.Name)
	ints(srv.Rows, srv.Lanes, srv.Depth)
	for i := range srv.XPositions {
		f64(c, &srv.XPositions[i])
	}
	for _, sk := range srv.Sockets() {
		ints(sk.Row, sk.Lane, sk.Pos, int(srv.Sink(sk.ID)))
	}
	floats(float64(srv.RowPitch), float64(srv.LanePitch))
	// Airflow.
	a := &cfg.Airflow
	floats(float64(a.Inlet), float64(a.FlowPerLane), a.Concentration, float64(a.MixLength),
		float64(a.AuxPerSocket), a.Air.DensityKgM3, a.Air.SpecificHeatJKgK)
	// Policy and workload.
	policy, mix := cfg.Scheduler.Name(), cfg.Mix.Name()
	c.str(&policy)
	c.str(&mix)
	for _, b := range cfg.Mix.Benchmarks() {
		c.bench(&b)
	}
	floats(cfg.Load)
	u64(c, &cfg.Seed)
	custom := cfg.Source != nil
	c.flags("", &custom) // custom source: identity beyond the interface is opaque...
	if ident, ok := cfg.Source.(sourceIdentifier); ok {
		sig := ident.SourceSignature() // ...unless the source hashes itself
		u64(c, &sig)
	}
	// Timing and thermal constants. Duration and DrainLimit are deliberately
	// absent — see the package comment.
	floats(float64(cfg.Warmup), float64(cfg.TickPeriod), float64(cfg.TDP),
		float64(cfg.HistoryTau), float64(cfg.SinkTau), float64(cfg.ChipTau))
	c.flags("", &cfg.DisableBoost)
	floats(float64(cfg.BoostWindow), boostTier1Util, boostTier2Util,
		float64(cfg.Migration.Period), float64(cfg.Migration.Cost),
		cfg.Migration.MinGainMHz, cfg.Migration.MinRemainingWork)
	// Heterogeneous SKUs: a per-cartridge override changes the trajectory
	// from the first tick, so the per-socket (TDP, FMax) pairs are identity.
	c.flags("", &s.hetero)
	for i := 0; s.hetero && i < len(s.sockets); i++ {
		sku := srv.SKU(geometry.SocketID(i))
		floats(float64(sku.TDP), float64(sku.FMax))
	}
	// Fault timeline: the canonical encoding covers every semantic field, so
	// a capture can never restore under a different fault schedule. A run
	// without faults contributes a zero-length marker.
	faults := string(cfg.Faults.Canonical())
	c.str(&faults)
	return sha256.Sum256(c.buf)
}

// SnapshotKey returns a filesystem-safe identity for this run's snapshots:
// the hex form of the configuration signature. Two simulators share a key
// exactly when a snapshot from one restores into the other, so the key is
// the natural cache-file name for warm-start layers (internal/experiments'
// WarmDir). It refuses for the same reasons Snapshot does.
func (s *Simulator) SnapshotKey() (string, error) {
	if err := s.snapshotable(); err != nil {
		return "", err
	}
	sig := s.cfgSig()
	return hex.EncodeToString(sig[:]), nil
}

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
