package sim

import (
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
	dyn := func(f units.MHz) units.Watts { return bm.DynamicPowerAt(f) }
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

// mixedSKUServer is the SUT with three leakage curves and SKU ceilings
// below FMax on a third of its rows, so that neighbouring sockets with the
// same sink carry different leakage and caps.
func mixedSKUServer() *geometry.Server {
	srv := geometry.SUT()
	skus := []chipmodel.SKU{{TDP: 18, FMax: 1500}, {TDP: 30, FMax: 1700}, {}}
	for _, sk := range srv.Sockets() {
		if sku := skus[(sk.Row+sk.Pos)%len(skus)]; !sku.IsZero() {
			srv.SetSKU(sk.ID, sku)
		}
	}
	return srv
}

// TestPredictiveMemoMatchesReference runs Predictive through real
// simulations — the SUT and a mixed-SKU SUT, at 30%, 70% and 90% load, over
// all three benchmark sets at once so that jobs of different power curves
// meet the same socket at the same ambient — and asserts on every pick that
// the memoized own-frequency search places the job exactly where the
// unmemoized PredictSocketFrequency reference would. The inlet is a hot
// aisle's 55C, so that within a fraction of a simulated second sockets sit
// on the throttle boundary and the estimates, not just the ambient
// tie-break, decide the picks; at the default 18C inlet every estimate is
// FMax and the comparison would prove nothing.
func TestPredictiveMemoMatchesReference(t *testing.T) {
	var all []workload.Benchmark
	for _, c := range workload.Classes {
		all = append(all, workload.ByClass(c)...)
	}
	mix, err := workload.NewMix("all", all)
	if err != nil {
		t.Fatal(err)
	}
	for _, srvCase := range []struct {
		name  string
		build func() *geometry.Server
	}{{"sut", geometry.SUT}, {"mixed-sku", mixedSKUServer}} {
		for _, load := range []float64{0.3, 0.7, 0.9} {
			memo, err := sched.ByName("Predictive", 1)
			if err != nil {
				t.Fatal(err)
			}
			o := &predictiveOracle{memo: memo}
			params := airflow.SUTParams()
			params.Inlet = 55
			s, err := New(Config{
				Server:    srvCase.build(),
				Scheduler: o,
				Airflow:   params,
				Mix:       mix,
				Load:      load,
				Seed:      3,
				Duration:  0.3,
				Warmup:    0.05,
				SinkTau:   0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			if o.throttled < 100 {
				t.Errorf("%s load %.1f: only %d of %d picks saw a throttled estimate", srvCase.name, load, o.throttled, o.picks)
			}
			if o.mismatches > 0 {
				t.Errorf("%s load %.1f: memoized Predictive differs from the reference on %d of %d picks (first for %s)",
					srvCase.name, load, o.mismatches, o.picks, o.first)
			}
		}
	}
}
