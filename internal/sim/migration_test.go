package sim

import (
	"sort"
	"testing"

	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/job"
	"densim/internal/sched"
	"densim/internal/units"
	"densim/internal/workload"
)

func TestMigrationConfigDefaults(t *testing.T) {
	m := MigrationConfig{Period: 0.05}.withDefaults()
	if m.Cost != 0.0005 || m.MinGainMHz != 200 || m.MinRemainingWork != 5 {
		t.Errorf("defaults = %+v", m)
	}
	// Explicit values survive.
	m2 := MigrationConfig{Period: 1, Cost: 0.001, MinGainMHz: 400, MinRemainingWork: 10}.withDefaults()
	if m2.Cost != 0.001 || m2.MinGainMHz != 400 || m2.MinRemainingWork != 10 {
		t.Errorf("explicit config overridden: %+v", m2)
	}
}

func TestMigrationDisabledByDefault(t *testing.T) {
	cfg := smallConfig("CP", 0.6, workload.Computation)
	_, s := runOne(t, cfg)
	if s.Migrations() != 0 {
		t.Errorf("migrations = %d without migration enabled", s.Migrations())
	}
}

func TestMigrationMovesThrottledTailJobs(t *testing.T) {
	// Under a hot inlet with CF placement, long-tail jobs get parked on
	// throttled sockets; a migration pass must find and move some of them.
	cfg := smallConfig("CF", 0.7, workload.Computation)
	cfg.Duration = 4
	cfg.Warmup = 1
	cfg.SinkTau = 0.4
	cfg.Airflow.Inlet = 40
	cfg.Migration = MigrationConfig{Period: 0.02}
	_, s := runOne(t, cfg)
	if s.Migrations() == 0 {
		t.Error("no migrations despite throttled sockets and a 20ms period")
	}
}

// sortedIdleScheduler wraps a scheduler and counts Pick calls whose idle
// set breaks the Scheduler contract (sorted by ID).
type sortedIdleScheduler struct {
	sched.Scheduler
	picks, unsorted int
}

func (c *sortedIdleScheduler) Pick(s sched.State, j *job.Job, idle []geometry.SocketID) geometry.SocketID {
	c.picks++
	if !sort.SliceIsSorted(idle, func(a, b int) bool { return idle[a] < idle[b] }) {
		c.unsorted++
	}
	return c.Scheduler.Pick(s, j, idle)
}

// TestMigrationPicksFromSortedIdleSet is the regression test for the
// migration pass handing Pick its own copy of the idle set with the
// destination's slot overwritten by the freed source — an unsorted slice
// that breaks CF's lowest-ID tie-break and CP's contiguous-row binning.
func TestMigrationPicksFromSortedIdleSet(t *testing.T) {
	for _, name := range []string{"CF", "CP"} {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(name, 0.7, workload.Computation)
			cfg.Duration = 2
			cfg.Warmup = 1
			cfg.SinkTau = 0.4
			cfg.Airflow.Inlet = 40
			cfg.Migration = MigrationConfig{Period: 0.02}
			ws := &sortedIdleScheduler{Scheduler: cfg.Scheduler}
			cfg.Scheduler = ws
			_, s := runOne(t, cfg)
			if s.Migrations() == 0 {
				t.Fatal("no migrations; the pass was not exercised")
			}
			if ws.unsorted != 0 {
				t.Errorf("%d of %d picks got an unsorted idle set", ws.unsorted, ws.picks)
			}
		})
	}
}

func TestMigrationDoesNotHurt(t *testing.T) {
	// With the gain threshold and cost gate, enabling migration should not
	// meaningfully worsen mean expansion.
	base := smallConfig("CF", 0.7, workload.Computation)
	base.Duration = 4
	base.Warmup = 1
	base.SinkTau = 0.4
	base.Airflow.Inlet = 40

	off, _ := runOne(t, base)
	on := base
	on.Migration = MigrationConfig{Period: 0.02}
	onRes, s := runOne(t, on)

	if s.Migrations() == 0 {
		t.Skip("no migrations triggered; nothing to compare")
	}
	if onRes.MeanExpansion > off.MeanExpansion*1.02 {
		t.Errorf("migration worsened expansion: %v -> %v", off.MeanExpansion, onRes.MeanExpansion)
	}
}

// uncoupledTriple builds three 18-fin sockets in independent lanes, each
// receiving inlet air — the minimal topology where one migration pass can
// have two profitable moves but only one initially idle socket.
func uncoupledTriple(t *testing.T) *geometry.Server {
	t.Helper()
	s, err := geometry.New("uncoupled-triple", 1, 3,
		[]units.Meters{0},
		[]chipmodel.Sink{chipmodel.Sink18Fin},
		units.FromInches(1.75), units.FromInches(2.5))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMigrationReusesFreedSource is the regression test for the freed-source
// bug: a migration frees its source socket, and a later candidate in the
// same pass must be able to move there. Two throttled jobs and one idle
// socket: job A (first in socket order) migrates to the idle socket, and
// job B can then only gain by taking A's freed — warm but much cooler —
// source. The pre-fix pass consumed the only idle socket on A and stopped.
func TestMigrationReusesFreedSource(t *testing.T) {
	heavy := workload.ByClass(workload.Computation)[0]
	light := workload.ByClass(workload.Storage)[0]
	hf, _ := sched.ByName("HF", 1)
	cfg := Config{
		Scheduler: hf,
		Server:    uncoupledTriple(t),
		// Hottest-first placement: the Storage job lands on the 85C socket
		// 1, then the Computation job on the 70C socket 0; socket 2 idle.
		Source: &listSource{arrivals: []listArrival{
			{at: 0, bench: light, nominal: 0.5},
			{at: 0, bench: heavy, nominal: 0.5},
		}},
		Duration: 2.0,
		Warmup:   0.1,
		// One pass only: both jobs (~0.5-0.6 s lives) are mid-flight at
		// t=0.4 and gone before t=0.8, so the second migration can only
		// happen if the pass reuses the source freed by the first.
		Migration: MigrationConfig{Period: 0.4},
	}
	h := newRunChecks(t, &cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.amb[0] = 70
	s.hist[0] = 70
	s.amb[1] = 85
	s.hist[1] = 85
	s.Run()
	if err := h.Err(); err != nil {
		t.Errorf("invariant violations: %v", err)
	}
	// The single pass at t=0.4: the Computation job (socket 0, throttled
	// at 70C) moves to the cool idle socket 2; the Storage job (socket 1,
	// forced to FMin at 85C) then moves to the freed socket 0, where ~70C
	// still admits a much higher P-state. Without freed-source reuse the
	// second move is impossible and only one migration happens.
	if got := s.Migrations(); got != 2 {
		t.Errorf("migrations = %d, want 2 (freed source reused in the same pass)", got)
	}
}

// countingScheduler wraps a scheduler and counts Pick calls.
type countingScheduler struct {
	sched.Scheduler
	picks int
}

func (c *countingScheduler) Pick(s sched.State, j *job.Job, idle []geometry.SocketID) geometry.SocketID {
	c.picks++
	return c.Scheduler.Pick(s, j, idle)
}

// TestMigrationSkipsBoostCappedJobs is the regression test for the
// nothing-to-gain gate: it must compare against the run's actual boost
// ceiling, not the absolute FMax. Under DisableBoost a cool job runs at
// MaxSustained — the best any destination could offer — yet the pre-fix
// gate (curFreq >= FMax) still paid a scheduler Pick per pass for it.
func TestMigrationSkipsBoostCappedJobs(t *testing.T) {
	bench := workload.ByClass(workload.Computation)[0]
	inner, _ := sched.ByName("CF", 1)
	cs := &countingScheduler{Scheduler: inner}
	cfg := Config{
		Scheduler:    cs,
		Server:       geometry.UncoupledPair(),
		Source:       &listSource{arrivals: []listArrival{{at: 0, bench: bench, nominal: 0.5}}},
		Duration:     2.0,
		Warmup:       0.1,
		DisableBoost: true,
		Migration:    MigrationConfig{Period: 0.005},
	}
	h := newRunChecks(t, &cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := h.Err(); err != nil {
		t.Errorf("invariant violations: %v", err)
	}
	if got := s.freq[0]; got != 0 { // job done; sanity only
		t.Logf("socket 0 frequency at end: %v", got)
	}
	if s.Migrations() != 0 {
		t.Errorf("migrations = %d, want 0 (job already at the boost ceiling)", s.Migrations())
	}
	// Exactly one Pick: the placement. ~100 migration passes overlap the
	// job's ~0.5 s lifetime; each would add one more under the old gate.
	if cs.picks != 1 {
		t.Errorf("scheduler Pick called %d times, want 1 (placement only)", cs.picks)
	}
}

func TestMigrationDeterministic(t *testing.T) {
	// Scheduler instances carry RNG state, so each run needs a fresh one.
	mk := func() Config {
		cfg := smallConfig("CP", 0.7, workload.Computation)
		cfg.Duration = 3
		cfg.SinkTau = 0.4
		cfg.Airflow.Inlet = 40
		cfg.Migration = MigrationConfig{Period: 0.05}
		return cfg
	}
	a, sa := runOne(t, mk())
	b, sb := runOne(t, mk())
	if sa.Migrations() != sb.Migrations() || a.MeanExpansion != b.MeanExpansion {
		t.Errorf("migration runs not deterministic: %d/%v vs %d/%v",
			sa.Migrations(), a.MeanExpansion, sb.Migrations(), b.MeanExpansion)
	}
}
