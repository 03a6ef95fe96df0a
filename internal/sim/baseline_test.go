package sim

import (
	"fmt"
	"testing"

	"densim/internal/geometry"
	"densim/internal/job"
	"densim/internal/sched"
	"densim/internal/stats"
	"densim/internal/units"
)

// baselineOracle runs a memoized baseline policy and, on the same state,
// its unmemoized reference, recording every pick on which they disagree.
// The memoized pick is the one placed, so the run follows exactly the path a
// plain run of the policy takes. It carries the policy's RNG stream (if
// any) through snapshots, as the policy itself would.
type baselineOracle struct {
	memo       sched.Scheduler
	ref        baselineRef
	picks      int
	mismatches int
	first      string
}

// baselineRef is a policy's unmemoized pick: rng is the policy's RNG
// stream position before the pick (0 for deterministic policies).
type baselineRef func(s sched.State, j *job.Job, idle []geometry.SocketID, rng uint64) geometry.SocketID

func (o *baselineOracle) Name() string { return o.memo.Name() }

func (o *baselineOracle) Pick(s sched.State, j *job.Job, idle []geometry.SocketID) geometry.SocketID {
	rng := o.RNGState()
	want := o.ref(s, j, idle, rng)
	got := o.memo.Pick(s, j, idle)
	o.picks++
	if got != want {
		if o.mismatches == 0 {
			o.first = fmt.Sprintf("pick %d (%s, %d idle): memo %d, reference %d", o.picks, j.Benchmark.Name, len(idle), got, want)
		}
		o.mismatches++
	}
	return got
}

func (o *baselineOracle) RNGState() uint64 {
	if rc, ok := o.memo.(sched.RNGCarrier); ok {
		return rc.RNGState()
	}
	return 0
}

func (o *baselineOracle) SetRNGState(state uint64) {
	if rc, ok := o.memo.(sched.RNGCarrier); ok {
		rc.SetRNGState(state)
	}
}

// refArgBest is the lowest-ID argmin every reference below ranks by.
func refArgBest(idle []geometry.SocketID, score func(geometry.SocketID) float64) geometry.SocketID {
	best, bestScore := idle[0], score(idle[0])
	for _, id := range idle[1:] {
		if sc := score(id); sc < bestScore {
			best, bestScore = id, sc
		}
	}
	return best
}

// The references are the policies as they stood before their memos: every
// score recomputed from the state vectors on every pick.
var baselineRefs = map[string]baselineRef{
	"CN": func(s sched.State, _ *job.Job, idle []geometry.SocketID, _ uint64) geometry.SocketID {
		srv, v := s.Server(), s.Vectors()
		return refArgBest(idle, func(id geometry.SocketID) float64 {
			own := float64(v.SocketTemp(id))
			var nsum float64
			neigh := srv.AppendNeighbors(nil, id)
			for _, n := range neigh {
				nsum += float64(v.SocketTemp(n))
			}
			if len(neigh) == 0 {
				return own * 2
			}
			return own + nsum/float64(len(neigh))
		})
	},
	"Balanced": func(s sched.State, _ *job.Job, idle []geometry.SocketID, _ uint64) geometry.SocketID {
		srv, v := s.Server(), s.Vectors()
		hottest := geometry.SocketID(0)
		hotT := units.Celsius(-1e9)
		for i := range v.Amb {
			if t := v.SocketTemp(geometry.SocketID(i)); t > hotT {
				hottest, hotT = geometry.SocketID(i), t
			}
		}
		return refArgBest(idle, func(id geometry.SocketID) float64 {
			return -float64(srv.Distance(hottest, id))
		})
	},
	"Predictive": func(s sched.State, j *job.Job, idle []geometry.SocketID, _ uint64) geometry.SocketID {
		srv, v := s.Server(), s.Vectors()
		dyn := powerColumn(&j.Benchmark)
		return refArgBest(idle, func(id geometry.SocketID) float64 {
			f := sched.PredictSocketFrequency(v, id, dyn, srv.Sink(id))
			return -float64(f)*1e3 + float64(v.Amb[id])
		})
	},
	"A-Random": func(s sched.State, _ *job.Job, idle []geometry.SocketID, state uint64) geometry.SocketID {
		const band = 1.0 // NewAdaptiveRandom's default
		v := s.Vectors()
		minCur := float64(v.SocketTemp(idle[0]))
		for _, id := range idle[1:] {
			if t := float64(v.SocketTemp(id)); t < minCur {
				minCur = t
			}
		}
		var cands []geometry.SocketID
		for _, id := range idle {
			if float64(v.SocketTemp(id)) <= minCur+band {
				cands = append(cands, id)
			}
		}
		minHist := float64(v.Hist[cands[0]])
		for _, id := range cands[1:] {
			if t := float64(v.Hist[id]); t < minHist {
				minHist = t
			}
		}
		var finals []geometry.SocketID
		for _, id := range cands {
			if float64(v.Hist[id]) <= minHist+band {
				finals = append(finals, id)
			}
		}
		rng := stats.NewRNG(0)
		rng.SetState(state)
		return finals[rng.Intn(len(finals))]
	},
}

// TestBaselineScoreCacheMatchesReference runs CN, Balanced, Predictive and
// A-Random through real simulations on the SUT, a mixed-SKU SUT and the
// double-density 360-socket server, at a hot aisle's 55C inlet so that
// Predictive's estimates throttle, and asserts on every pick that the
// memoized policy places the job exactly where its unmemoized reference
// would. Two legs cover the two ways a memo can go stale:
//
//   - At 30%, 70% and 90% load every lane moves on every tick. Each run
//     forks warm: it snapshots at 0.1 s, runs on to 0.2 s, restores the
//     capture into the same simulator and finishes, so memos filled after
//     the capture meet the rewound state, which only Restore's epoch bump
//     tells them about.
//   - At 0.5% to 2% load with time constants of a few ticks, idle lanes
//     settle to bit-exact fixed points and keep their epochs while the
//     lanes around a new job heat up, so a memo that misses one channel it
//     reads replays a stale score.
func TestBaselineScoreCacheMatchesReference(t *testing.T) {
	dd360 := func() *geometry.Server {
		srv, err := geometry.DenseSystemWithSinks("dd360", 15, 2, 12, geometry.AlternatingSinks(12))
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	cases := []memoCase{memoCases[0], memoCases[1], {"dd360", dd360, 2}}
	for _, c := range cases {
		for _, name := range []string{"CN", "Balanced", "Predictive", "A-Random"} {
			for _, load := range []float64{0.3, 0.7, 0.9} {
				cfg := hotAisleConfig(t, c, nil, load)
				checkBaselineScores(t, c.name, name, cfg, func(s *Simulator) {
					s.RunTo(0.1)
					snap, err := s.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					s.RunTo(0.2)
					if err := s.Restore(snap); err != nil {
						t.Fatal(err)
					}
					s.Finish()
				})
			}
			for _, load := range []float64{0.005, 0.01, 0.02} {
				cfg := hotAisleConfig(t, c, nil, load)
				cfg.Duration, cfg.SinkTau, cfg.ChipTau, cfg.HistoryTau, cfg.BoostWindow = 2, 0.004, 0.001, 0.004, 0.002
				checkBaselineScores(t, c.name, name, cfg, func(s *Simulator) { s.Run() })
			}
		}
	}
}

// checkBaselineScores runs policy name under cfg through the oracle and
// reports every pick on which the memoized policy and its reference differ.
func checkBaselineScores(t *testing.T, server, name string, cfg Config, run func(*Simulator)) {
	t.Helper()
	memo, err := sched.ByName(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := &baselineOracle{memo: memo, ref: baselineRefs[name]}
	cfg.Scheduler = o
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(s)
	tag := fmt.Sprintf("%s/%s load %v", server, name, cfg.Load)
	if o.picks < 100 {
		t.Errorf("%s: only %d picks", tag, o.picks)
	}
	if o.mismatches > 0 {
		t.Errorf("%s: memoized pick differs from the reference on %d of %d picks; first %s",
			tag, o.mismatches, o.picks, o.first)
	}
}
