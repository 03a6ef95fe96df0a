package sim

import (
	"math"
	"testing"

	"densim/internal/airflow"
	"densim/internal/check"
	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/metrics"
	"densim/internal/queueing"
	"densim/internal/sched"
	"densim/internal/trace"
	"densim/internal/units"
	"densim/internal/workload"
)

// runOne runs cfg to completion with the invariant harness attached (unless
// the caller supplied its own), failing the test on any violation — every
// sim test doubles as a checked run.
func runOne(t *testing.T, cfg Config) (metrics.Result, *Simulator) {
	t.Helper()
	var h *check.Checks
	if cfg.Checks == nil {
		h = check.New()
		cfg.Checks = h
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if h != nil {
		if err := h.Err(); err != nil {
			t.Errorf("invariant violations: %v", err)
		}
	}
	return res, s
}

func smallConfig(schedName string, load float64, class workload.Class) Config {
	s, err := sched.ByName(schedName, 1)
	if err != nil {
		panic(err)
	}
	return Config{
		Scheduler: s,
		Airflow:   airflow.SUTParams(),
		Mix:       workload.ClassMix(class),
		Load:      load,
		Seed:      7,
		Duration:  2.0,
		Warmup:    0.5,
	}
}

func TestConfigValidation(t *testing.T) {
	cf, _ := sched.ByName("CF", 1)
	cases := []Config{
		{},                           // no scheduler
		{Scheduler: cf},              // no duration
		{Scheduler: cf, Duration: 1}, // no mix/source
		{Scheduler: cf, Duration: 1, Mix: workload.ClassMix(workload.Storage), Load: -1},
		{Scheduler: cf, Duration: 1, Mix: workload.ClassMix(workload.Storage), Load: 0.5, Warmup: 2},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestZeroLoadCompletesNothing(t *testing.T) {
	r, s := runOne(t, smallConfig("CF", 0, workload.Storage))
	if r.Completed != 0 || s.Arrived() != 0 {
		t.Errorf("zero load completed %d jobs, arrived %d", r.Completed, s.Arrived())
	}
}

func TestModerateLoadCompletesAllJobs(t *testing.T) {
	r, s := runOne(t, smallConfig("CF", 0.3, workload.Storage))
	if s.Arrived() == 0 {
		t.Fatal("no arrivals at 30% load")
	}
	if s.Unfinished() != 0 {
		t.Errorf("%d jobs unfinished at 30%% load", s.Unfinished())
	}
	// All post-warmup jobs complete; the collector sees most of them.
	if r.Completed == 0 {
		t.Error("no completions recorded")
	}
	if r.MeanExpansion < 1.0-1e-9 {
		t.Errorf("mean expansion = %v < 1 (jobs cannot beat FMax)", r.MeanExpansion)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, _ := runOne(t, smallConfig("CP", 0.5, workload.Computation))
	b, _ := runOne(t, smallConfig("CP", 0.5, workload.Computation))
	if a.Completed != b.Completed || a.MeanExpansion != b.MeanExpansion || a.EnergyJ != b.EnergyJ {
		t.Errorf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := smallConfig("CF", 0.5, workload.Computation)
	a, _ := runOne(t, cfg)
	cfg.Seed = 8
	b, _ := runOne(t, cfg)
	if a.Completed == b.Completed && a.MeanExpansion == b.MeanExpansion {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestUtilizationTracksLoad(t *testing.T) {
	// At a modest load with a frequency-insensitive workload, the busy
	// fraction of socket-time should be near the configured load.
	cfg := smallConfig("Random", 0.4, workload.Storage)
	cfg.Duration = 3
	cfg.Warmup = 1
	r, _ := runOne(t, cfg)
	// Busy seconds inferred: completed work stretches by expansion.
	// Cheap proxy: mean expansion should stay close to 1 (no saturation).
	if r.MeanExpansion > 1.35 {
		t.Errorf("mean expansion %v at 40%% load; system should not saturate", r.MeanExpansion)
	}
}

func TestBackSocketsRunHotterUnderLoad(t *testing.T) {
	// After a sustained run, downstream sockets must be hotter than
	// upstream ones under a front-packing scheduler — the thermal-coupling
	// signature.
	cfg := smallConfig("CF", 0.8, workload.Computation)
	cfg.Duration = 3
	cfg.SinkTau = 0.5
	_, s := runOne(t, cfg)
	srv := s.Server()
	var frontSum, backSum float64
	var nf, nb int
	for _, sk := range srv.Sockets() {
		amb := float64(s.amb[sk.ID])
		if srv.IsFrontHalf(sk.ID) {
			frontSum += amb
			nf++
		} else {
			backSum += amb
			nb++
		}
	}
	front, back := frontSum/float64(nf), backSum/float64(nb)
	if back <= front+1 {
		t.Errorf("back ambient %0.1fC not clearly hotter than front %0.1fC", back, front)
	}
}

func TestThermalThrottlingAtHighLoad(t *testing.T) {
	// At 100% Computation load the system must show throttling: boost
	// residency clearly below 1 and back-half frequency below front-half.
	// The sink time constant is shortened so the thermal field reaches
	// steady state inside a short test (physics unchanged, just faster).
	cfg := smallConfig("CF", 1.0, workload.Computation)
	cfg.Duration = 6
	cfg.Warmup = 3
	cfg.SinkTau = 0.5
	r, _ := runOne(t, cfg)
	if r.BoostResidency > 0.95 {
		t.Errorf("boost residency %v at full load; expected throttling", r.BoostResidency)
	}
	if r.RegionFreq[metrics.BackHalf] >= r.RegionFreq[metrics.FrontHalf] {
		t.Errorf("back-half freq %v >= front-half %v under CF at full load",
			r.RegionFreq[metrics.BackHalf], r.RegionFreq[metrics.FrontHalf])
	}
}

func TestCFPacksFront(t *testing.T) {
	// Figure 13(a): at 30% load CF performs most work in the front half.
	cfg := smallConfig("CF", 0.3, workload.Computation)
	cfg.Duration = 3
	cfg.SinkTau = 0.5
	r, _ := runOne(t, cfg)
	if r.RegionWorkShare[metrics.FrontHalf] < 0.7 {
		t.Errorf("CF front-half work share = %v at 30%% load, want > 0.7",
			r.RegionWorkShare[metrics.FrontHalf])
	}
}

func TestMinHRPacksBack(t *testing.T) {
	cfg := smallConfig("MinHR", 0.3, workload.Computation)
	cfg.Duration = 3
	cfg.SinkTau = 0.5
	r, _ := runOne(t, cfg)
	if r.RegionWorkShare[metrics.BackHalf] < 0.7 {
		t.Errorf("MinHR back-half work share = %v at 30%% load, want > 0.7",
			r.RegionWorkShare[metrics.BackHalf])
	}
}

func TestBalancedLPacksZone1(t *testing.T) {
	cfg := smallConfig("Balanced-L", 0.15, workload.Storage)
	r, _ := runOne(t, cfg)
	if r.ZoneWorkShare[1] < 0.8 {
		t.Errorf("Balanced-L zone-1 work share = %v at 15%% load", r.ZoneWorkShare[1])
	}
}

func TestTraceReplayMatchesLiveRun(t *testing.T) {
	mix := workload.ClassMix(workload.GeneralPurpose)
	tr := trace.Capture(mix, 180, 0.5, 123, 2.0)
	mk := func(src bool) metrics.Result {
		cf, _ := sched.ByName("CF", 1)
		cfg := Config{Scheduler: cf, Duration: 2.0, Warmup: 0.2, Seed: 123, Mix: mix, Load: 0.5}
		if src {
			cfg.Source = trace.NewPlayer(tr)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	live := mk(false)
	replay := mk(true)
	if live.Completed != replay.Completed {
		t.Errorf("live %d vs replay %d completions", live.Completed, replay.Completed)
	}
	if math.Abs(live.MeanExpansion-replay.MeanExpansion) > 1e-9 {
		t.Errorf("live expansion %v vs replay %v", live.MeanExpansion, replay.MeanExpansion)
	}
}

func TestEnergyPositiveAndScalesWithLoad(t *testing.T) {
	lo, _ := runOne(t, smallConfig("Random", 0.2, workload.GeneralPurpose))
	hi, _ := runOne(t, smallConfig("Random", 0.8, workload.GeneralPurpose))
	if lo.EnergyJ <= 0 {
		t.Fatal("zero energy at 20% load")
	}
	if hi.EnergyJ <= lo.EnergyJ {
		t.Errorf("energy at 80%% load (%v) not above 20%% load (%v)", hi.EnergyJ, lo.EnergyJ)
	}
}

func TestIdleFloorEnergy(t *testing.T) {
	// Even with zero load the gated sockets draw 10% of TDP each.
	cfg := smallConfig("CF", 0, workload.Storage)
	cfg.Duration = 1
	cfg.Warmup = 0.0
	r, _ := runOne(t, cfg)
	want := 180 * chipmodel.GatedPowerFrac * float64(workload.TDP) * 1.0 // J over 1s
	if math.Abs(float64(r.EnergyJ)-want)/want > 0.05 {
		t.Errorf("idle energy = %v J, want ~%v J", r.EnergyJ, want)
	}
}

func TestChipTempsStayBounded(t *testing.T) {
	cfg := smallConfig("HF", 1.0, workload.Computation)
	cfg.Duration = 3
	_, s := runOne(t, cfg)
	for _, sk := range s.Server().Sockets() {
		temp := float64(s.chip[sk.ID])
		if temp < float64(s.Airflow().Inlet())-1 {
			t.Fatalf("socket %d chip temp %v below inlet", sk.ID, temp)
		}
		// The limit is enforced at steady state; transients may slightly
		// overshoot but must stay in a sane envelope.
		if temp > float64(chipmodel.TempLimit)+10 {
			t.Fatalf("socket %d chip temp %v far above limit", sk.ID, temp)
		}
	}
}

func TestCoupledPairTopologyRuns(t *testing.T) {
	cf, _ := sched.ByName("CF", 1)
	cfg := Config{
		Server:    geometry.CoupledPair(),
		Scheduler: cf,
		Mix:       workload.ClassMix(workload.Computation),
		Load:      0.5,
		Seed:      3,
		Duration:  2,
		Warmup:    0.5,
	}
	r, s := runOne(t, cfg)
	if r.Completed == 0 {
		t.Fatal("coupled pair completed nothing")
	}
	if s.Unfinished() != 0 {
		t.Errorf("%d unfinished", s.Unfinished())
	}
}

func TestDrainLimitRespected(t *testing.T) {
	// Overload (load > 1) must terminate at the drain limit, not hang.
	cfg := smallConfig("CF", 2.5, workload.Computation)
	cfg.Duration = 1
	cfg.DrainLimit = 2
	r, s := runOne(t, cfg)
	if s.Now() > 2.01 {
		t.Errorf("run continued to %v past drain limit", s.Now())
	}
	if s.Unfinished() == 0 {
		t.Error("overloaded run claims everything finished")
	}
	if r.Completed == 0 {
		t.Error("overloaded run completed nothing")
	}
}

func TestAllSchedulersRunOnSUT(t *testing.T) {
	if testing.Short() {
		t.Skip("10 full simulations")
	}
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, s := runOne(t, smallConfig(name, 0.6, workload.GeneralPurpose))
			if r.Completed == 0 {
				t.Fatalf("%s completed nothing", name)
			}
			if s.Unfinished() > s.Arrived()/10 {
				t.Errorf("%s left %d of %d jobs unfinished", name, s.Unfinished(), s.Arrived())
			}
			if r.MeanExpansion < 1 {
				t.Errorf("%s mean expansion %v < 1", name, r.MeanExpansion)
			}
		})
	}
}

func TestWorkConservation(t *testing.T) {
	// Completed FMax-equivalent work can never exceed busy socket-seconds
	// (jobs run at relative performance <= 1), and busy socket-seconds can
	// never exceed wall-clock capacity.
	for _, load := range []float64{0.2, 0.6, 1.0} {
		cfg := smallConfig("Random", load, workload.Computation)
		cfg.Duration = 3
		cfg.Warmup = 0
		r, s := runOne(t, cfg)
		if r.CompletedWorkSeconds > r.BusySocketSeconds*1.0001 {
			t.Errorf("load %v: completed work %v > busy time %v", load,
				r.CompletedWorkSeconds, r.BusySocketSeconds)
		}
		capacity := float64(r.Span) * float64(s.Server().NumSockets())
		if r.BusySocketSeconds > capacity*1.0001 {
			t.Errorf("load %v: busy time %v > capacity %v", load, r.BusySocketSeconds, capacity)
		}
	}
}

func TestEnergyBounds(t *testing.T) {
	// Total energy must sit between the all-gated floor and the
	// all-sockets-at-max-power ceiling.
	cfg := smallConfig("CP", 0.7, workload.Computation)
	cfg.Duration = 3
	cfg.Warmup = 0
	r, s := runOne(t, cfg)
	n := float64(s.Server().NumSockets())
	span := float64(r.Span)
	floor := n * span * chipmodel.GatedPowerFrac * float64(workload.TDP)
	ceiling := n * span * 2 * float64(workload.TDP) // leakage cap allows < 2x TDP
	if float64(r.EnergyJ) < floor*0.99 || float64(r.EnergyJ) > ceiling {
		t.Errorf("energy %v outside [%v, %v]", r.EnergyJ, floor, ceiling)
	}
}

func TestThroughputMatchesArrivalsWhenStable(t *testing.T) {
	// At stable loads everything that arrives eventually completes; the
	// simulator's own accounting must agree.
	cfg := smallConfig("Predictive", 0.5, workload.GeneralPurpose)
	cfg.Duration = 3
	_, s := runOne(t, cfg)
	if s.Unfinished() != 0 {
		t.Errorf("stable run left %d jobs unfinished", s.Unfinished())
	}
}

func TestQueueingMatchesAnalyticApproximation(t *testing.T) {
	// Cross-validate the simulator's queueing against the Allen-Cunneen
	// M/G/c approximation on a thermally-trivial system: a 2-socket
	// uncoupled pair running Storage at a cool inlet never throttles, so
	// waiting comes purely from queueing.
	mix := workload.ClassMix(workload.Storage)
	cf, _ := sched.ByName("CF", 1)
	cfg := Config{
		Server:    geometry.UncoupledPair(),
		Scheduler: cf,
		Mix:       mix,
		Load:      0.6,
		Seed:      11,
		Duration:  60,
		Warmup:    5,
	}
	r, _ := runOne(t, cfg)
	if r.MeanServiceExpansion > 1.0001 {
		t.Fatalf("service expansion %v: unexpected throttling breaks the comparison", r.MeanServiceExpansion)
	}
	meanDur := float64(mix.MeanDuration())
	simWait := r.MeanWaitSeconds

	q := queueing.MGc{
		MMc: queueing.MMc{
			Lambda:      mix.ArrivalRate(2, 0.6),
			ServiceTime: meanDur,
			Servers:     2,
		},
		ServiceCoV: 2.5, // the workload model's within-benchmark dispersion
	}
	analytic, err := q.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	// Allen-Cunneen is an approximation and the service distribution is a
	// lognormal mixture; agreement within 2x validates the simulator's
	// queueing path.
	if ratio := simWait / analytic; ratio < 0.5 || ratio > 2 {
		t.Errorf("sim wait %.6fs vs analytic %.6fs (ratio %.2f), want within 2x",
			simWait, analytic, ratio)
	}
}

func TestBusySocketsAlwaysAtValidPState(t *testing.T) {
	// Invariant probe: every busy socket runs at a ladder frequency, every
	// idle socket at 0, and ambient never drops below the inlet.
	cfg := smallConfig("CP", 0.8, workload.Computation)
	cfg.Duration = 2
	cfg.SinkTau = 0.5
	valid := map[units.MHz]bool{}
	for _, f := range chipmodel.Frequencies {
		valid[f] = true
	}
	violations := 0
	cfg.Probe = func(s *Simulator, now units.Seconds) {
		for _, sk := range s.Server().Sockets() {
			if s.Busy(sk.ID) {
				if !valid[s.freq[sk.ID]] {
					violations++
				}
			} else if s.freq[sk.ID] != 0 {
				violations++
			}
			if s.amb[sk.ID] < s.Airflow().Inlet()-0.01 {
				violations++
			}
		}
	}
	runOne(t, cfg)
	if violations > 0 {
		t.Errorf("%d invariant violations across ticks", violations)
	}
}

func TestHotterInletNeverHelps(t *testing.T) {
	// Monotonicity: raising the inlet temperature cannot improve mean
	// expansion under the same seed and scheduler.
	mk := func(inlet units.Celsius) float64 {
		cfg := smallConfig("CF", 0.8, workload.Computation)
		cfg.Duration = 3
		cfg.SinkTau = 0.5
		cfg.Airflow.Inlet = inlet
		r, _ := runOne(t, cfg)
		return r.MeanExpansion
	}
	cool := mk(18)
	hot := mk(45)
	if hot < cool-1e-9 {
		t.Errorf("45C inlet expansion %v better than 18C %v", hot, cool)
	}
}
