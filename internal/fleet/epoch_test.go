package fleet

// The closed-loop equivalence suite: every determinism guarantee the
// zero-epoch (open-loop) case earns in fleet_test.go, re-earned with epochs
// stepped — plus the oracles that only exist because of the loop itself:
// epoch-zero byte-equivalence with an absent epoch block, closed round-robin
// byte-equivalence with open round-robin (the epoch windows' own
// bit-exactness proof), epoch-length invariance of the completion count on
// throttle-free runs, warm starts confined to the zero-epoch case, and the
// per-chassis telemetry counters in both cases.

import (
	"os"
	"reflect"
	"runtime"
	"testing"

	"densim/internal/scenario"
	"densim/internal/sim"
	"densim/internal/telemetry"
)

// closedFleet is uniformFleet with a closed-loop epoch block.
func closedFleet(n int, dispatcher string, periodS float64) *scenario.Scenario {
	sc := uniformFleet(n, dispatcher)
	sc.Fleet.Epoch = &scenario.FleetEpoch{PeriodS: periodS}
	return sc
}

// hotColdFleet is the two-rack thermal asymmetry most closed-loop tests
// route over: two cool chassis, two hot-aisle chassis at 24C.
func hotColdFleet(dispatcher string, periodS float64) *scenario.Scenario {
	sc := testScenario(&scenario.Fleet{
		Dispatcher: dispatcher,
		Chassis: []scenario.FleetChassis{
			{Rack: 0, Chassis: 0, Count: 2},
			{Rack: 1, Chassis: 0, Count: 2, InletC: 24},
		},
	})
	if periodS > 0 {
		sc.Fleet.Epoch = &scenario.FleetEpoch{PeriodS: periodS}
	}
	return sc
}

// sameClosedResult compares two fleet results for bit identity ignoring the
// loop-mode bookkeeping (Epochs, EpochS, EpochStarts, per-chassis EstErr)
// on top of the worker count — the fields that are allowed to differ when
// an open-loop and a closed-loop run are expected to agree on everything
// physical.
func sameLoopResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	ca, cb := *a, *b
	ca.Workers, cb.Workers = 0, 0
	ca.Epochs, cb.Epochs = 0, 0
	ca.EpochS, cb.EpochS = 0, 0
	ca.EpochStarts, cb.EpochStarts = nil, nil
	ca.Chassis = append([]ChassisResult(nil), ca.Chassis...)
	cb.Chassis = append([]ChassisResult(nil), cb.Chassis...)
	for i := range ca.Chassis {
		ca.Chassis[i].EstErr = 0
	}
	for i := range cb.Chassis {
		cb.Chassis[i].EstErr = 0
	}
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("%s: fleet results differ\n a: %+v\n b: %+v", label, ca, cb)
	}
}

// TestEpochZeroEquivalence: an absent epoch block and an explicit epoch 0 are
// the same run — byte for byte, every dispatcher — and both are the
// executor's zero-epoch case, carrying no epoch bookkeeping and no shadow
// estimate.
func TestEpochZeroEquivalence(t *testing.T) {
	for _, disp := range scenario.FleetDispatchers() {
		absent := hotColdFleet(disp, 0)
		explicit := hotColdFleet(disp, 0)
		explicit.Fleet.Epoch = &scenario.FleetEpoch{PeriodS: 0}
		a := mustRun(t, absent, 1, nil)
		b := mustRun(t, explicit, 1, nil)
		sameResult(t, disp+": absent vs epoch 0", a, b)
		if a.Epochs != 0 || a.EpochS != 0 || a.EpochStarts != nil {
			t.Errorf("%s: open-loop run carries epoch bookkeeping: %+v", disp, a)
		}
		for _, cr := range a.Chassis {
			if cr.EstErr != 0 {
				t.Errorf("%s: open-loop chassis %s has EstErr %d, want 0", disp, cr.Name(), cr.EstErr)
			}
		}
	}
}

// TestClosedLoopRoundRobin: closed-loop round-robin must reproduce open-loop
// round-robin bit for bit. Round-robin ignores observations by construction,
// so both modes route identical per-chassis streams — any physical
// difference would be a bug in the epoch windows themselves (RunTo steps,
// source pushes and rewinds, drain), making this their bit-exactness
// oracle.
func TestClosedLoopRoundRobin(t *testing.T) {
	open := mustRun(t, hotColdFleet("round-robin", 0), 1, nil)
	closed := mustRun(t, hotColdFleet("round-robin", 0.25), 1, nil)
	sameLoopResult(t, "open vs closed round-robin", open, closed)
	if !reflect.DeepEqual(open.Picks, closed.Picks) {
		t.Error("round-robin pick sequences differ between loop modes")
	}
	if closed.Epochs == 0 {
		t.Error("closed-loop run recorded no epochs")
	}
}

// TestClosedLoopFleetOfOne: the degenerate fleet equivalence, closed-loop
// edition — one chassis stepped in epochs must still reproduce plain
// sim.Run bit for bit, for every dispatcher (with one chassis every policy
// routes identically, so this exercises all three closed pick paths).
func TestClosedLoopFleetOfOne(t *testing.T) {
	for _, disp := range scenario.FleetDispatchers() {
		sc := closedFleet(1, disp, 0.25)
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
			t.Errorf("%s: closed-loop fleet-of-one aggregate != plain sim.Run\n fleet: %+v\n plain: %+v", disp, res.Aggregate, want)
		}
		if res.Chassis[0].Arrived != s.Arrived() || res.Chassis[0].Unfinished != s.Unfinished() {
			t.Errorf("%s: accounting differs from plain sim.Run", disp)
		}
	}
}

// TestClosedLoopShardCountInvariance: the worker pool still only changes
// wall-clock time when it is fenced inside every epoch. CI runs this under
// -race, making it the data-race oracle for the epoch step barrier.
func TestClosedLoopShardCountInvariance(t *testing.T) {
	sc := hotColdFleet("thermal", 0.25)
	base := mustRun(t, sc, 1, func(f *Fleet) { f.SetWorkers(1) })
	if base.Epochs == 0 {
		t.Fatal("closed-loop run recorded no epochs")
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		res := mustRun(t, sc, 1, func(f *Fleet) { f.SetWorkers(w) })
		sameResult(t, "closed-loop workers", base, res)
	}
}

// TestClosedLoopChassisPermutationInvariance: declaration order must not
// affect closed-loop routing either — observations are indexed in canonical
// chassis order, so a permuted fleet block observes and routes identically.
func TestClosedLoopChassisPermutationInvariance(t *testing.T) {
	fwd := hotColdFleet("thermal", 0.25)
	rev := testScenario(&scenario.Fleet{
		Dispatcher: "thermal",
		Epoch:      &scenario.FleetEpoch{PeriodS: 0.25},
		Chassis: []scenario.FleetChassis{
			{Rack: 1, Chassis: 1, InletC: 24},
			{Rack: 0, Chassis: 1},
			{Rack: 1, Chassis: 0, InletC: 24},
			{Rack: 0, Chassis: 0},
		},
	})
	a := mustRun(t, fwd, 1, nil)
	b := mustRun(t, rev, 1, nil)
	sameResult(t, "closed-loop permutation", a, b)
}

// TestClosedLoopDeterminism: two identical closed-loop runs agree on every
// byte, epoch bookkeeping and pick sequence included, for every dispatcher —
// and the epoch/pick structure is internally consistent: EpochStarts indexes
// Picks monotonically, one entry per epoch.
func TestClosedLoopDeterminism(t *testing.T) {
	for _, disp := range scenario.FleetDispatchers() {
		sc := hotColdFleet(disp, 0.25)
		a := mustRun(t, sc, 1, nil)
		b := mustRun(t, sc, 1, nil)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: closed-loop runs differ\n a: %+v\n b: %+v", disp, a, b)
		}
		if a.Epochs == 0 || a.EpochS != 0.25 {
			t.Fatalf("%s: epoch bookkeeping: epochs=%d period=%v", disp, a.Epochs, a.EpochS)
		}
		if len(a.EpochStarts) != a.Epochs {
			t.Fatalf("%s: %d epoch starts for %d epochs", disp, len(a.EpochStarts), a.Epochs)
		}
		for k := 1; k < len(a.EpochStarts); k++ {
			if a.EpochStarts[k] < a.EpochStarts[k-1] {
				t.Fatalf("%s: EpochStarts not monotone at %d: %v", disp, k, a.EpochStarts)
			}
		}
		if last := a.EpochStarts[len(a.EpochStarts)-1]; last > len(a.Picks) {
			t.Fatalf("%s: last epoch start %d beyond pick sequence (%d)", disp, last, len(a.Picks))
		}
		total := 0
		for _, cr := range a.Chassis {
			total += cr.Dispatched
		}
		if total != len(a.Picks) {
			t.Errorf("%s: dispatched %d != picks %d", disp, total, len(a.Picks))
		}
	}
}

// TestClosedLoopHeterogeneous: tie-break determinism under heterogeneous
// per-chassis SKUs (an 8-socket template chassis next to a 90-socket preset
// ref) plus an inlet override, for every dispatcher in both loop modes. Two
// runs of each combination must agree bit for bit — CI repeats this with
// -count=2 -race, so interleaving noise cannot hide a fragile tie-break.
func TestClosedLoopHeterogeneous(t *testing.T) {
	for _, disp := range scenario.FleetDispatchers() {
		for _, periodS := range []float64{0, 0.5} {
			sc := testScenario(&scenario.Fleet{
				Dispatcher: disp,
				Chassis: []scenario.FleetChassis{
					{Rack: 0, Chassis: 0},
					{Rack: 0, Chassis: 1, Scenario: "half-density-90"},
					{Rack: 1, Chassis: 0, InletC: 24},
				},
			})
			if periodS > 0 {
				sc.Fleet.Epoch = &scenario.FleetEpoch{PeriodS: periodS}
			}
			a := mustRun(t, sc, 1, nil)
			b := mustRun(t, sc, 1, nil)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s period=%g: heterogeneous fleet not deterministic", disp, periodS)
			}
			if len(a.Picks) == 0 {
				t.Fatalf("%s period=%g: empty pick sequence", disp, periodS)
			}
			if (periodS > 0) != (a.Epochs > 0) {
				t.Errorf("%s period=%g: epochs=%d", disp, periodS, a.Epochs)
			}
		}
	}
}

// TestEpochLengthInvarianceCompleted: on a throttle-free, fully-draining run
// the epoch period may change *routing* (observed dispatchers see different
// boundary snapshots) but never the total completion count — every streamed
// job completes somewhere. The load is kept low so every chassis drains, and
// the warmup is a sliver so completions are all counted.
func TestEpochLengthInvarianceCompleted(t *testing.T) {
	run := func(periodS float64) *Result {
		sc := hotColdFleet("least-loaded", periodS)
		sc.Workload.Load = 0.3
		sc.Run.WarmupS = 0.001
		return mustRun(t, sc, 1, nil)
	}
	base := run(0.25)
	for _, cr := range base.Chassis {
		if cr.Unfinished != 0 {
			t.Fatalf("chassis %s left %d unfinished; invariance needs a full drain", cr.Name(), cr.Unfinished)
		}
	}
	for _, periodS := range []float64{0.5, 1.0} {
		res := run(periodS)
		if res.Aggregate.Completed != base.Aggregate.Completed {
			t.Errorf("period %gs completed %d, period 0.25s completed %d",
				periodS, res.Aggregate.Completed, base.Aggregate.Completed)
		}
	}
}

// TestClosedLoopEstErr: the shadow open-loop estimator's divergence ledger.
// Closed-loop runs must record a non-negative EstErr per chassis; at a load
// high enough to queue, the estimator's nominal-duration picture drifts from
// reality, so the fleet-wide sum must be positive — the measured reason
// closed-loop dispatch exists.
func TestClosedLoopEstErr(t *testing.T) {
	sc := hotColdFleet("least-loaded", 0.25)
	sc.Workload.Load = 0.9
	res := mustRun(t, sc, 1, nil)
	total := 0
	for _, cr := range res.Chassis {
		if cr.EstErr < 0 {
			t.Fatalf("chassis %s EstErr = %d, negative", cr.Name(), cr.EstErr)
		}
		total += cr.EstErr
	}
	if total == 0 {
		t.Error("open-loop estimate never diverged at load 0.9; shadow estimator is not measuring")
	}
}

// TestClosedLoopIgnoresWarmDir: every chassis source carries a signature,
// but only the zero-epoch case may warm-start — a closed-loop chassis's
// source holds one window, not its stream, by the time it drains. With
// WarmDir set, closed-loop runs must match a cold run byte for byte and
// leave the cache empty; so must an instrumented open loop. An
// uninstrumented open loop over the same directory is the positive control.
func TestClosedLoopIgnoresWarmDir(t *testing.T) {
	empty := func(label, dir string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("%s: wrote %d warm-start cache entries, want none", label, len(entries))
		}
	}
	for _, disp := range []string{"thermal", "least-loaded"} {
		sc := hotColdFleet(disp, 0.25)
		cold := mustRun(t, sc, 1, nil)
		dir := t.TempDir()
		warm := mustRun(t, sc, 1, func(f *Fleet) { f.WarmDir = dir })
		sameResult(t, disp+": closed loop cold vs WarmDir", cold, warm)
		empty(disp+" closed loop", dir)
	}

	sc := hotColdFleet("thermal", 0)
	cold := mustRun(t, sc, 1, nil)
	dir := t.TempDir()
	traced := mustRun(t, sc, 1, func(f *Fleet) {
		f.WarmDir = dir
		f.Telemetry = telemetry.NewSet()
	})
	sameResult(t, "open loop cold vs instrumented WarmDir", cold, traced)
	empty("instrumented open loop", dir)
	mustRun(t, sc, 1, func(f *Fleet) { f.WarmDir = dir })
	if entries, _ := os.ReadDir(dir); len(entries) == 0 {
		t.Error("uninstrumented open loop wrote no warm-start cache entry")
	}
}

// TestFleetTelemetryCounters: the per-chassis fleet counters agree with the
// result they instrument. dispatched counts the routing pass's picks, in
// both loop modes; epochs, observations (one per boundary plus the t=0
// snapshot) and dispatch_est_err exist only once epochs are stepped.
func TestFleetTelemetryCounters(t *testing.T) {
	for _, period := range []float64{0, 0.25} {
		set := telemetry.NewSet()
		res := mustRun(t, hotColdFleet("thermal", period), 1, func(f *Fleet) { f.Telemetry = set })
		if period > 0 && res.Epochs == 0 {
			t.Fatalf("epoch %gs: closed-loop run stepped no epochs", period)
		}
		for _, cr := range res.Chassis {
			tel := set.For(cr.Name())
			want := map[telemetry.CounterID]int{
				telemetry.CDispatched:     cr.Dispatched,
				telemetry.CEpochs:         0,
				telemetry.CObservations:   0,
				telemetry.CDispatchEstErr: 0,
			}
			if period > 0 {
				want[telemetry.CEpochs] = res.Epochs
				want[telemetry.CObservations] = res.Epochs + 1
				want[telemetry.CDispatchEstErr] = cr.EstErr
			}
			for id, w := range want {
				if got := tel.Counter(id); got != int64(w) {
					t.Errorf("epoch %gs: chassis %s %s = %d, want %d", period, cr.Name(), id.Name(), got, w)
				}
			}
		}
	}
}

// TestEpochNewRejects pins the fleet layer's own epoch validation (layer 2,
// against the resolved tick period): a misaligned epoch never reaches Run.
func TestEpochNewRejects(t *testing.T) {
	sc := closedFleet(2, "", 0.0015)
	if _, err := New(sc, 1); err == nil {
		t.Error("New accepted an epoch that is not a tick multiple")
	}
	sub := closedFleet(2, "", 0.0005)
	if _, err := New(sub, 1); err == nil {
		t.Error("New accepted a sub-tick epoch")
	}
}
