package sim

import (
	"fmt"
	"math"
	"testing"

	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/job"
	"densim/internal/sched"
	"densim/internal/stats"
	"densim/internal/units"
	"densim/internal/workload"
)

// cpBoundOracle scores every candidate of each pick two ways: through
// CP's Score, which checks each downwind socket against the leakage-cap
// bound first and predicts the candidate's leakage only when the bound
// cannot decide, and through refCPScore, which computes the exact heat up
// front and searches every counted downwind socket's post-rise index. It
// requires bit-equal scores, and that CP's pick is the reference argmax
// over the row the reference draws from CP's RNG stream. CP's pick is the
// one placed, so the run follows exactly the path a plain CP run takes.
type cpBoundOracle struct {
	cp         *sched.CouplingPredictor
	opts       sched.CPOptions
	picks      int
	scored     int
	mismatches int
	first      string
	// checks counts the counted downwind sockets the reference visited;
	// decided those the bound alone settles, and lost those whose index the
	// exact heat lowered.
	checks, decided, lost int
}

func (o *cpBoundOracle) Name() string { return o.cp.Name() }

func (o *cpBoundOracle) Pick(s sched.State, j *job.Job, idle []geometry.SocketID) geometry.SocketID {
	cands := idle
	if !o.opts.GlobalSearch {
		cands = refCPRow(s.Server(), idle, o.cp.RNGState())
	}
	util := 0.0
	if o.opts.IdleWeighted {
		util = 1 - float64(len(idle))/float64(s.Server().NumSockets())
	}
	want, best := cands[0], math.Inf(-1)
	for _, id := range cands {
		got := o.cp.Score(s, j, id, len(idle))
		ref := o.refCPScore(s, &j.Benchmark, id, util)
		o.scored++
		if math.Float64bits(got) != math.Float64bits(ref) {
			o.mismatch(fmt.Sprintf("pick %d (%s) socket %d: score %v, reference %v", o.picks, j.Benchmark.Name, id, got, ref))
		}
		if ref > best {
			want, best = id, ref
		}
	}
	got := o.cp.Pick(s, j, idle)
	o.picks++
	if got != want {
		o.mismatch(fmt.Sprintf("pick %d (%s): CP %d, reference %d", o.picks, j.Benchmark.Name, got, want))
	}
	return got
}

func (o *cpBoundOracle) mismatch(msg string) {
	if o.mismatches == 0 {
		o.first = msg
	}
	o.mismatches++
}

// refCPRow returns the candidates CP draws with its RNG at stream
// position state: the idle sockets of one row, drawn uniformly from the
// rows holding idle sockets.
func refCPRow(srv *geometry.Server, idle []geometry.SocketID, state uint64) []geometry.SocketID {
	var starts []int
	for k, id := range idle {
		if k == 0 || srv.Socket(id).Row != srv.Socket(idle[k-1]).Row {
			starts = append(starts, k)
		}
	}
	rng := stats.NewRNG(0)
	rng.SetState(state)
	r := rng.Intn(len(starts))
	starts = append(starts, len(idle))
	return idle[starts[r]:starts[r+1]]
}

// refCPScore is CP's score as it stood before the leakage-cap bound: the
// candidate's exact injected heat, from a fresh two-step prediction of its
// leakage, computed up front, and every counted downwind socket's post-rise
// index searched at the exact rise. It also classifies each such socket by
// whether the bound alone decides it.
func (o *cpBoundOracle) refCPScore(s sched.State, bm *workload.Benchmark, cand geometry.SocketID, util float64) float64 {
	v := s.Vectors()
	ladder := v.Ladder
	leak := v.Leak[cand]
	own := sched.LadderFreq(ladder.Index(cand, bm, bm.DynMax(), v.Amb[cand]))
	if !o.opts.IgnoreBudget && own > v.Cap[cand] {
		own = v.Cap[cand]
	}
	if o.opts.NoCoupling {
		return float64(own)
	}
	ownDyn := bm.DynamicPowerAt(own)
	ownLeak := leak.At(chipmodel.PredictTwoStep(v.Amb[cand], ownDyn, s.Server().Sink(cand), leak))
	added := float64(ownDyn) + float64(ownLeak) - chipmodel.GatedPowerFrac*float64(leak.TDP)
	if added < 0 {
		added = 0
	}
	addedHi := float64(ownDyn) + float64(leak.Max()) - chipmodel.GatedPowerFrac*float64(leak.TDP)
	var loss float64
	for _, dw := range s.Airflow().Downwind(cand) {
		down := dw.Down
		rise := units.Celsius(dw.C * added)
		if rise <= 0 {
			continue
		}
		var weight float64
		var dbm *workload.Benchmark
		if running := v.Job[down]; running != nil {
			weight, dbm = 1, &running.Benchmark
		} else if util > 0 && !s.Busy(down) {
			weight, dbm = util, bm
		} else {
			continue
		}
		amb := v.Amb[down]
		bIdx := ladder.Index(down, dbm, dbm.DynMax(), amb)
		aIdx := ladder.IndexBelow(down, bIdx, amb+rise)
		o.checks++
		if ladder.IndexBelow(down, bIdx, amb+units.Celsius(dw.C*addedHi)) == bIdx {
			o.decided++
		}
		if aIdx != bIdx {
			o.lost++
		}
		before, after := sched.LadderFreq(bIdx), sched.LadderFreq(aIdx)
		if !o.opts.IgnoreBudget {
			if cap := v.Cap[down]; before > cap {
				before = cap
				if after > cap {
					after = cap
				}
			}
		}
		loss += weight * float64(before-after)
	}
	return float64(own) - loss
}

// TestCPBoundMatchesReference runs CP and three of its ablations through
// real simulations — the memoCases servers at 30%, 70% and 90% load — and
// asserts on every pick that the bounded score of every candidate is
// bit-equal to the eager reference and that CP picks the reference's
// choice. Two thermal settings exercise both branches: a 55C inlet with a
// 1 s sink time constant heats sockets onto their P-state boundaries, so
// the bound is often inconclusive and the exact heat decides; an 18C inlet
// with the 30 s constant keeps the field cold, where the bound decides
// nearly every check.
func TestCPBoundMatchesReference(t *testing.T) {
	variants := []string{"CP", "CP-idleweighted", "CP-nobudget", "CP-global"}
	opts := map[string]sched.CPOptions{
		"CP":              {},
		"CP-idleweighted": {IdleWeighted: true},
		"CP-nobudget":     {IgnoreBudget: true},
		"CP-global":       {GlobalSearch: true},
	}
	var hotLost int
	for _, hot := range []bool{true, false} {
		for _, c := range memoCases {
			for _, name := range variants {
				for _, load := range []float64{0.3, 0.7, 0.9} {
					o := &cpBoundOracle{cp: sched.NewCouplingPredictorOpts(1, opts[name]), opts: opts[name]}
					if o.Name() != name {
						t.Fatalf("variant %s built as %s", name, o.Name())
					}
					cfg := hotAisleConfig(t, c, o, load)
					field := "hot"
					if hot {
						cfg.SinkTau = 1
					} else {
						field = "cold"
						cfg.Airflow.Inlet, cfg.SinkTau = 18, 30
					}
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					s.Run()
					tag := fmt.Sprintf("%s %s/%s load %.1f", field, c.name, name, load)
					if o.picks < 100 {
						t.Errorf("%s: only %d picks", tag, o.picks)
					}
					if o.mismatches > 0 {
						t.Errorf("%s: %d mismatches over %d scores and %d picks; first %s", tag, o.mismatches, o.scored, o.picks, o.first)
					}
					fallback := o.checks - o.decided
					switch {
					case hot && fallback < 100:
						t.Errorf("%s: the bound was inconclusive on only %d of %d downwind checks", tag, fallback, o.checks)
					case !hot && float64(o.decided) < 0.9*float64(o.checks):
						t.Errorf("%s: the bound decided only %d of %d downwind checks", tag, o.decided, o.checks)
					}
					if hot {
						hotLost += o.lost
					}
					t.Logf("%s: %d picks, %d checks, %d decided by the bound, %d lowered an index", tag, o.picks, o.checks, o.decided, o.lost)
				}
			}
		}
	}
	if hotLost == 0 {
		t.Error("no downwind check in the hot cells lowered an index; the exact branch proves nothing")
	}
}
