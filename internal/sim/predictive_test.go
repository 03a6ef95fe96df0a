package sim

import (
	"fmt"
	"testing"

	"densim/internal/airflow"
	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/job"
	"densim/internal/sched"
	"densim/internal/units"
	"densim/internal/workload"
)

// predictiveOracle runs the memoized Predictive and, on the same state,
// the unmemoized reference — the lowest-ID argmin over idle sockets of
// -1e3·PredictSocketFrequency + ambient — and records every pick on which
// they disagree. The memoized pick is the one placed, so the run follows
// exactly the path a plain Predictive run takes.
type predictiveOracle struct {
	memo       sched.Scheduler
	picks      int
	throttled  int // picks on which some candidate's estimate sat below FMax
	mismatches int
	first      string
}

func (o *predictiveOracle) Name() string { return o.memo.Name() }

func (o *predictiveOracle) Pick(s sched.State, j *job.Job, idle []geometry.SocketID) geometry.SocketID {
	got := o.memo.Pick(s, j, idle)
	v, srv := s.Vectors(), s.Server()
	bm := &j.Benchmark
	dyn := powerColumn(bm)
	throttled := false
	score := func(id geometry.SocketID) float64 {
		f := sched.PredictSocketFrequency(v, id, dyn, srv.Sink(id))
		throttled = throttled || f < chipmodel.FMax
		return -float64(f)*1e3 + float64(v.Amb[id])
	}
	want, best := idle[0], score(idle[0])
	for _, id := range idle[1:] {
		if sc := score(id); sc < best {
			want, best = id, sc
		}
	}
	o.picks++
	if throttled && len(idle) > 1 {
		o.throttled++
	}
	if got != want {
		if o.mismatches == 0 {
			o.first = bm.Name
		}
		o.mismatches++
	}
	return got
}

// powerColumn returns bm's dynamic power at each P-state, straight from
// the benchmark: the input of the unmemoized reference searches.
func powerColumn(bm *workload.Benchmark) []units.Watts {
	dyn := make([]units.Watts, len(chipmodel.Frequencies))
	for k, f := range chipmodel.Frequencies {
		dyn[k] = bm.DynamicPowerAt(f)
	}
	return dyn
}

// skuServer returns a builder of the SUT with skus[(row+pos) mod len(skus)]
// installed on each socket, so that neighbouring sockets with the same sink
// carry different SKUs.
func skuServer(skus ...chipmodel.SKU) func() *geometry.Server {
	return func() *geometry.Server {
		srv := geometry.SUT()
		for _, sk := range srv.Sockets() {
			if sku := skus[(sk.Row+sk.Pos)%len(skus)]; !sku.IsZero() {
				srv.SetSKU(sk.ID, sku)
			}
		}
		return srv
	}
}

// TestPredictiveMemoMatchesReference runs Predictive and CP through real
// simulations — the SUT and two mixed-SKU SUTs, at 30%, 70% and 90% load,
// over all three benchmark sets at once, at a hot aisle's 55C inlet so that
// the estimates, not just the ambient tie-break, decide the picks. For
// Predictive it asserts on every pick that the memoized own-frequency search
// places the job exactly where the unmemoized PredictSocketFrequency
// reference would; for CP, that every busy socket's pre-rise downwind
// prediction equals chipmodel.PredictFrequency.
func TestPredictiveMemoMatchesReference(t *testing.T) {
	for _, c := range memoCases {
		for _, load := range []float64{0.3, 0.7, 0.9} {
			memo, err := sched.ByName("Predictive", 1)
			if err != nil {
				t.Fatal(err)
			}
			o := &predictiveOracle{memo: memo}
			s, err := New(hotAisleConfig(t, c, o, load))
			if err != nil {
				t.Fatal(err)
			}
			checkClasses(t, s, c)
			s.Run()
			if o.throttled < 100 {
				t.Errorf("%s load %.1f: only %d of %d picks saw a throttled estimate", c.name, load, o.throttled, o.picks)
			}
			if o.mismatches > 0 {
				t.Errorf("%s load %.1f: memoized Predictive differs from the reference on %d of %d picks (first for %s)",
					c.name, load, o.mismatches, o.picks, o.first)
			}

			cp := &cpOracle{Scheduler: sched.NewCouplingPredictor(1)}
			s, err = New(hotAisleConfig(t, c, cp, load))
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			if cp.throttled < 100 {
				t.Errorf("%s load %.1f: only %d of %d CP downwind checks saw a throttled reference", c.name, load, cp.throttled, cp.checked)
			}
			if cp.mismatches > 0 {
				t.Errorf("%s load %.1f: %d of %d CP pre-rise predictions differ from the reference; first %s",
					c.name, load, cp.mismatches, cp.checked, cp.first)
			}
		}
	}
}

// memoCase is one server of the ladder-search differential tests: classes
// is the number of distinct (sink, leakage) pairs among its sockets, each of
// which gets its own admissibility row per power curve.
type memoCase struct {
	name    string
	build   func() *geometry.Server
	classes int
}

// The SUT's two sinks share one leakage curve; the mixed-SKU SUT carries
// three leakage curves on both sinks; the FMax-only one keeps the platform
// TDP everywhere, so it has the SUT's two classes while neighbouring caps
// differ.
var memoCases = []memoCase{
	{"sut", geometry.SUT, 2},
	{"mixed-sku", skuServer(chipmodel.SKU{TDP: 18, FMax: 1500}, chipmodel.SKU{TDP: 30, FMax: 1700}, chipmodel.SKU{}), 6},
	{"fmax-sku", skuServer(chipmodel.SKU{FMax: 1500}, chipmodel.SKU{FMax: 1700}, chipmodel.SKU{}), 2},
}

// allBenchmarksMix draws from all three benchmark sets at once, so that jobs
// of different power curves meet the same socket at the same ambient.
func allBenchmarksMix(t *testing.T) workload.Mix {
	t.Helper()
	var all []workload.Benchmark
	for _, c := range workload.Classes {
		all = append(all, workload.ByClass(c)...)
	}
	mix, err := workload.NewMix("all", all)
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

// hotAisleConfig is a short run at a 55C inlet, so that within a fraction
// of a simulated second sockets sit on the throttle boundary: at the default
// 18C inlet every estimate is FMax and a differential test proves nothing.
func hotAisleConfig(t *testing.T, c memoCase, sch sched.Scheduler, load float64) Config {
	params := airflow.SUTParams()
	params.Inlet = 55
	return Config{
		Server:    c.build(),
		Scheduler: sch,
		Airflow:   params,
		Mix:       allBenchmarksMix(t),
		Load:      load,
		Seed:      3,
		Duration:  0.3,
		Warmup:    0.05,
		SinkTau:   0.5,
	}
}

// checkClasses asserts that the case's sockets carry as many distinct
// (sink, leakage) pairs as the case says, so the cases cover ladder searches
// with one admissibility row per curve for each sink and with several.
func checkClasses(t *testing.T, s *Simulator, c memoCase) {
	t.Helper()
	type class struct {
		sink chipmodel.Sink
		leak chipmodel.Leakage
	}
	classes := map[class]bool{}
	for i, l := range s.leakAt {
		classes[class{s.srv.Sink(geometry.SocketID(i)), l}] = true
	}
	if len(classes) != c.classes {
		t.Fatalf("%s: %d (sink, leakage) classes, want %d", c.name, len(classes), c.classes)
	}
}

// cpOracle runs CP and, after each of its picks, checks the ladder search's
// pre-rise prediction for every busy socket — the "before" frequency CP's
// downwind loop reads — against the unmemoized chipmodel.PredictFrequency.
type cpOracle struct {
	sched.Scheduler
	checked    int
	throttled  int // checks whose reference sat below FMax
	mismatches int
	first      string
}

func (o *cpOracle) Pick(s sched.State, j *job.Job, idle []geometry.SocketID) geometry.SocketID {
	got := o.Scheduler.Pick(s, j, idle)
	v, srv := s.Vectors(), s.Server()
	for i, running := range s.(*Simulator).jobs {
		if running == nil {
			continue
		}
		id := geometry.SocketID(i)
		bm := &running.Benchmark
		memo := sched.LadderFreq(v.Curve[i].Index(id, v.Amb[i]))
		ref := chipmodel.PredictFrequency(v.Amb[i], powerColumn(bm), srv.Sink(id), v.Leak[i])
		o.checked++
		if ref < chipmodel.FMax {
			o.throttled++
		}
		if memo != ref {
			if o.mismatches == 0 {
				o.first = fmt.Sprintf("socket %d running %s: memo %v, reference %v", i, bm.Name, memo, ref)
			}
			o.mismatches++
		}
	}
	return got
}

// TestPowerManagerPickMatchesReference asserts, after every tick of the
// event engine, that each busy socket runs at exactly the frequency the
// serial engine's reference search (pickFrequencyIndexed) picks: the run's
// ladder search clamped to the boost cap. It covers CP and Predictive — the
// schedulers that read the same search — at 30%, 70% and 90% load on the
// SUT, on a mixed-SKU SUT whose TDPs differ (six admissibility classes) and
// on one whose SKUs differ only in FMax. A short boost window lets the
// utilization tiers bind within the run, so the cap clamp decides picks,
// not only the thermal limit.
func TestPowerManagerPickMatchesReference(t *testing.T) {
	for _, c := range memoCases {
		for _, name := range []string{"Predictive", "CP"} {
			for _, load := range []float64{0.3, 0.7, 0.9} {
				sch, err := sched.ByName(name, 1)
				if err != nil {
					t.Fatal(err)
				}
				var checked, capBound, heatBound, mismatches int
				var first string
				cfg := hotAisleConfig(t, c, sch, load)
				cfg.BoostWindow = 0.02
				cfg.Probe = func(s *Simulator, now units.Seconds) {
					for i, running := range s.jobs {
						if running == nil {
							continue
						}
						id := geometry.SocketID(i)
						want := chipmodel.Frequencies[s.pickFrequencyIndexed(id)]
						uncapped := chipmodel.PredictFrequency(s.amb[i], powerColumn(&running.Benchmark), s.srv.Sink(id), s.leakAt[i])
						checked++
						if uncapped > s.caps[i] {
							capBound++
						}
						if uncapped < chipmodel.FMax {
							heatBound++
						}
						if s.mhz(i) != want {
							if mismatches == 0 {
								first = fmt.Sprintf("t=%v socket %d: freq %v, reference %v (cap %v)", now, i, s.mhz(i), want, s.caps[i])
							}
							mismatches++
						}
					}
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkClasses(t, s, c)
				if !s.eng.incremental {
					t.Fatal("the default engine is not the event engine")
				}
				s.Run()
				tag := fmt.Sprintf("%s/%s load %.1f", c.name, name, load)
				if capBound < 100 || heatBound < 100 {
					t.Errorf("%s: of %d checks only %d were cap-bound and %d heat-bound", tag, checked, capBound, heatBound)
				}
				if mismatches > 0 {
					t.Errorf("%s: %d of %d busy-socket frequencies differ from the reference search; first %s", tag, mismatches, checked, first)
				}
			}
		}
	}
}
