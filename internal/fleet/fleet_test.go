package fleet

// The fleet equivalence suite: the package's determinism contract, enforced.
// This is the fleet analog of the sim package's TestEngineEquivalenceMatrix —
// every guarantee the package doc claims is pinned by a test here:
// shard-count invariance, single-chassis degenerate equivalence against plain
// sim.Run, dispatcher pick-sequence determinism, chassis-permutation
// invariance, round-robin balance, and warm-start/cold equivalence.

import (
	"reflect"
	"runtime"
	"testing"

	"densim/internal/scenario"
	"densim/internal/sim"
)

// testChassis is the small fleet member every test composes: 8 sockets
// (2 rows x 2 lanes x 2 zones), enough thermal coupling to be non-trivial,
// small enough that a multi-chassis fleet run stays fast.
func testScenario(fl *scenario.Fleet) *scenario.Scenario {
	return &scenario.Scenario{
		Version:   scenario.CurrentVersion,
		Name:      "fleet-test",
		Topology:  scenario.Topology{Rows: 2, Lanes: 2, Depth: 2},
		Airflow:   scenario.Airflow{AuxPerSocketW: 10},
		Workload:  scenario.Workload{Class: "GP", Load: 0.5},
		Scheduler: scenario.Scheduler{Name: "CP"},
		Run:       scenario.Run{Seeds: []uint64{1}, DurationS: 5},
		Fleet:     fl,
	}
}

func uniformFleet(n int, dispatcher string) *scenario.Scenario {
	return testScenario(&scenario.Fleet{
		Dispatcher: dispatcher,
		Chassis:    []scenario.FleetChassis{{Rack: 0, Chassis: 0, Count: n}},
	})
}

func mustRun(t *testing.T, sc *scenario.Scenario, seed uint64, cfgFn func(*Fleet)) *Result {
	t.Helper()
	f, err := New(sc, seed)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if cfgFn != nil {
		cfgFn(f)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// sameResult compares two fleet results for bit identity, ignoring the
// recorded worker count (the one field that is allowed to differ).
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	ca, cb := *a, *b
	ca.Workers, cb.Workers = 0, 0
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("%s: fleet results differ\n a: %+v\n b: %+v", label, ca, cb)
	}
}

// TestFleetOfOneEquivalence: a fleet of one chassis must reproduce plain
// sim.Run over the same scenario bit for bit — aggregate, chassis result,
// and job accounting. This pins the fleet stream generator to the simulator's
// live arrival source and the replay path to the live path.
func TestFleetOfOneEquivalence(t *testing.T) {
	for _, disp := range scenario.FleetDispatchers() {
		sc := uniformFleet(1, disp)
		res := mustRun(t, sc, 1, nil)

		plain := *sc
		plain.Fleet = nil
		cfg, err := plain.Config(1)
		if err != nil {
			t.Fatalf("Config: %v", err)
		}
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		want := s.Run()

		if !reflect.DeepEqual(res.Aggregate, want) {
			t.Errorf("%s: fleet-of-one aggregate != plain sim.Run\n fleet: %+v\n plain: %+v", disp, res.Aggregate, want)
		}
		if !reflect.DeepEqual(res.Chassis[0].Result, want) {
			t.Errorf("%s: chassis result != plain sim.Run", disp)
		}
		if res.Chassis[0].Arrived != s.Arrived() || res.Chassis[0].Unfinished != s.Unfinished() {
			t.Errorf("%s: accounting differs: fleet arrived=%d unfinished=%d, plain arrived=%d unfinished=%d",
				disp, res.Chassis[0].Arrived, res.Chassis[0].Unfinished, s.Arrived(), s.Unfinished())
		}
	}
}

// TestFleetShardCountInvariance: the worker pool bound may change wall-clock
// time only. 1 worker, 4 workers, and GOMAXPROCS workers must produce
// byte-identical results — the CI runs this test under -race, which also
// makes it the data-race oracle for the pool.
func TestFleetShardCountInvariance(t *testing.T) {
	sc := testScenario(&scenario.Fleet{
		Dispatcher: "thermal",
		Chassis: []scenario.FleetChassis{
			{Rack: 0, Chassis: 0, Count: 3},
			{Rack: 1, Chassis: 0, Count: 3, InletC: 24},
		},
	})
	base := mustRun(t, sc, 1, func(f *Fleet) { f.SetWorkers(1) })
	if base.Workers != 1 {
		t.Fatalf("workers = %d, want 1", base.Workers)
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		res := mustRun(t, sc, 1, func(f *Fleet) { f.SetWorkers(w) })
		sameResult(t, "workers", base, res)
	}
}

// TestDispatcherPickSequenceDeterminism: the pick sequence is a pure
// function of (policy, fleet, stream) — two identical runs replay it
// exactly, and each policy's structural signature holds.
func TestDispatcherPickSequenceDeterminism(t *testing.T) {
	for _, disp := range scenario.FleetDispatchers() {
		sc := testScenario(&scenario.Fleet{
			Dispatcher: disp,
			Chassis: []scenario.FleetChassis{
				{Rack: 0, Chassis: 0, Count: 2},
				{Rack: 1, Chassis: 0, Count: 2, InletC: 24},
			},
		})
		a := mustRun(t, sc, 1, nil)
		b := mustRun(t, sc, 1, nil)
		if len(a.Picks) == 0 {
			t.Fatalf("%s: empty pick sequence", disp)
		}
		if !reflect.DeepEqual(a.Picks, b.Picks) {
			t.Errorf("%s: pick sequence not deterministic", disp)
		}
		for k, p := range a.Picks {
			if p < 0 || p >= len(a.Chassis) {
				t.Fatalf("%s: pick %d out of range: %d", disp, k, p)
			}
		}
		switch disp {
		case "round-robin":
			for k, p := range a.Picks {
				if p != k%len(a.Chassis) {
					t.Fatalf("round-robin pick %d = %d, want %d", k, p, k%len(a.Chassis))
				}
			}
		case "thermal":
			// An empty fleet ranks purely on ambient headroom: the first
			// job must land on a cool (rack 0) chassis, and the lowest
			// index among them by the tie-break rule.
			if a.Picks[0] != 0 {
				t.Errorf("thermal first pick = %d, want 0 (coolest, lowest index)", a.Picks[0])
			}
		case "least-loaded":
			// An empty fleet is uniformly unloaded: the tie-break sends
			// the first job to chassis 0.
			if a.Picks[0] != 0 {
				t.Errorf("least-loaded first pick = %d, want 0 (tie-break)", a.Picks[0])
			}
		}
	}
}

// TestFleetChassisPermutationInvariance: declaration order of fleet entries
// must not affect anything — chassis are canonically (rack, slot) ordered
// before dispatch. The metamorphic transform is a permutation of the chassis
// list; the invariant is bit-identity of the full result.
func TestFleetChassisPermutationInvariance(t *testing.T) {
	fwd := testScenario(&scenario.Fleet{
		Dispatcher: "thermal",
		Chassis: []scenario.FleetChassis{
			{Rack: 0, Chassis: 0, Count: 2},
			{Rack: 1, Chassis: 0, Count: 2, InletC: 24},
		},
	})
	rev := testScenario(&scenario.Fleet{
		Dispatcher: "thermal",
		Chassis: []scenario.FleetChassis{
			{Rack: 1, Chassis: 1, InletC: 24},
			{Rack: 0, Chassis: 1},
			{Rack: 1, Chassis: 0, InletC: 24},
			{Rack: 0, Chassis: 0},
		},
	})
	a := mustRun(t, fwd, 1, nil)
	b := mustRun(t, rev, 1, nil)
	sameResult(t, "permutation", a, b)
}

// TestRoundRobinBalance: round-robin over identical chassis splits the
// stream as evenly as arithmetic allows — per-chassis Dispatched within ±1 —
// and when every chassis drains fully, Completed inherits the same ±1 bound.
// The warmup is shrunk to a sliver: completions inside the warmup window are
// (correctly) excluded from Result.Completed, which would blur the exact
// bound this test pins.
func TestRoundRobinBalance(t *testing.T) {
	sc := uniformFleet(4, "round-robin")
	sc.Run.WarmupS = 0.001
	res := mustRun(t, sc, 1, nil)
	minD, maxD := res.Chassis[0].Dispatched, res.Chassis[0].Dispatched
	minC, maxC := res.Chassis[0].Result.Completed, res.Chassis[0].Result.Completed
	for _, cr := range res.Chassis {
		if cr.Unfinished != 0 {
			t.Fatalf("chassis %s left %d jobs unfinished; balance bound needs a full drain", cr.Name(), cr.Unfinished)
		}
		if cr.Dispatched < minD {
			minD = cr.Dispatched
		}
		if cr.Dispatched > maxD {
			maxD = cr.Dispatched
		}
		if cr.Result.Completed < minC {
			minC = cr.Result.Completed
		}
		if cr.Result.Completed > maxC {
			maxC = cr.Result.Completed
		}
	}
	if maxD-minD > 1 {
		t.Errorf("round-robin dispatched spread = %d, want <= 1", maxD-minD)
	}
	if maxC-minC > 1 {
		t.Errorf("round-robin completed spread = %d, want <= 1", maxC-minC)
	}
	if res.Aggregate.Completed == 0 {
		t.Error("fleet completed no jobs")
	}
}

// TestFleetWarmStartEquivalence: the per-chassis warm-start cache is a pure
// accelerator. A cold run, a cache-filling run, and a cache-hitting run must
// all be byte-identical.
func TestFleetWarmStartEquivalence(t *testing.T) {
	sc := testScenario(&scenario.Fleet{
		Dispatcher: "least-loaded",
		Chassis: []scenario.FleetChassis{
			{Rack: 0, Chassis: 0, Count: 2},
			{Rack: 0, Chassis: 2, InletC: 24},
		},
	})
	cold := mustRun(t, sc, 1, nil)
	dir := t.TempDir()
	fill := mustRun(t, sc, 1, func(f *Fleet) { f.WarmDir = dir })
	hit := mustRun(t, sc, 1, func(f *Fleet) { f.WarmDir = dir })
	sameResult(t, "cold vs fill", cold, fill)
	sameResult(t, "cold vs hit", cold, hit)
}

// TestFleetSeedSensitivity: different fleet seeds must produce different
// streams (a degenerate arrival feed would pass every equivalence test above
// by being constant).
func TestFleetSeedSensitivity(t *testing.T) {
	sc := uniformFleet(2, "round-robin")
	a := mustRun(t, sc, 1, nil)
	b := mustRun(t, sc, 2, nil)
	if reflect.DeepEqual(a.Aggregate, b.Aggregate) {
		t.Error("seeds 1 and 2 produced identical aggregates")
	}
}

// TestFleetHeterogeneousRefs: chassis refs pull their own hardware (here a
// preset) while the template's workload and windows are forced onto them —
// the shared-stream contract.
func TestFleetHeterogeneousRefs(t *testing.T) {
	sc := testScenario(&scenario.Fleet{
		Chassis: []scenario.FleetChassis{
			{Rack: 0, Chassis: 0},
			{Rack: 0, Chassis: 1, Scenario: "half-density-90"},
		},
	})
	f, err := New(sc, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	chs := f.Chassis()
	if chs[0].Sockets != 8 || chs[1].Sockets != 90 {
		t.Fatalf("sockets = %d,%d, want 8,90", chs[0].Sockets, chs[1].Sockets)
	}
	for _, ch := range chs {
		if got := ch.Scenario.Run.DurationS; got != sc.Run.DurationS {
			t.Errorf("chassis %s duration %v, want template's %v (shared windows)", ch.Name(), got, sc.Run.DurationS)
		}
		if got := ch.Scenario.Workload.Load; got != sc.Workload.Load {
			t.Errorf("chassis %s load %v, want template's %v (shared stream)", ch.Name(), got, sc.Workload.Load)
		}
	}
}

// TestFleetNewRejects pins New's own validation layer (beyond the scenario
// block's): no fleet block, nested fleets, chassis snapshot blocks.
func TestFleetNewRejects(t *testing.T) {
	sc := testScenario(nil)
	if _, err := New(sc, 1); err == nil {
		t.Error("New accepted a scenario without a fleet block")
	}
	ref := uniformFleet(2, "")
	ref.Fleet.Chassis[0].Scenario = "fleet-2x2"
	if _, err := New(ref, 1); err == nil {
		t.Error("New accepted a nested fleet ref")
	}
}
