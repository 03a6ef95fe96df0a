// Package sched implements the job placement policies of Section IV: the
// existing chip-level and data-center-level temperature-aware schedulers the
// paper evaluates (CF, HF, Random, MinHR, CN, Balanced, Balanced-L,
// A-Random, Predictive) and the paper's proposed CouplingPredictor (CP).
//
// A Scheduler sees the system through the State interface the simulator
// implements — the topology, the coupling model and the live per-socket
// vectors (StateVectors), which alias the simulator's own storage — and
// picks one socket from the idle set for each pending job. Every policy
// reads the vectors directly: the socket temperature the
// temperature-ordering policies rank by is one formula over them
// (StateVectors.SocketTemp), and Predictive and CP read frequencies from
// the simulation's one memoized ladder search (StateVectors.Ladder), the
// same one its power manager picks through.
// Schedulers must be deterministic given their construction-time seed.
package sched

import (
	"fmt"

	"densim/internal/airflow"
	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/job"
	"densim/internal/units"
)

// State is the scheduler's view of the live system: the topology, the
// coupling model, and the per-socket state vectors. Everything stored per
// socket is read through Vectors; Busy stays a method because it folds in
// the fault runtime's dead-socket set, which no vector carries.
type State interface {
	// Server returns the topology.
	Server() *geometry.Server
	// Airflow returns the thermal-coupling model (the offline heat-transfer
	// map of MinHR and the table lookup of CP).
	Airflow() *airflow.Model
	// Busy reports whether the socket cannot accept work: it is running a
	// job, or it is dead (a socket-death fault) and carries none.
	Busy(geometry.SocketID) bool
	// Vectors returns the per-socket state: one structure the simulator
	// builds once, so the call is a pointer return with no copying.
	Vectors() *StateVectors
}

// StateVectors is the live per-socket state, indexed by socket ID (Epoch by
// airflow channel). The slices alias the simulator's storage: they are valid
// for the duration of one Pick and must never be written by schedulers.
// Ladder is the one exception: schedulers may fill its memo through Index
// and IndexBelow, and may write nothing else.
//
//   - Amb[i] is the socket's current entry air temperature.
//   - Pewma[i] is the socket's 30-second power average, the heatsink-mass
//     state behind SocketTemp.
//   - RExt[i] is the external thermal resistance of the socket's heat sink
//     (chipmodel.Sink.RExt), a per-socket constant.
//   - Hist[i] is a slow-moving average of the socket temperature (the
//     history input of A-Random).
//   - Job[i] is the running job, nil while the socket is idle or dead.
//   - Leak[i] is the socket's leakage model. Leakage is per-socket:
//     heterogeneous SKUs bin parts at different TDPs, so two sockets can
//     carry different leakage curves.
//   - Cap[i] is the highest P-state the socket's boost budget (the BKDG
//     boost budget [36]), SKU ceiling and any throttle fault currently
//     permit: FMax with plenty of idle residency, stepping down to the
//     sustained frequency for fully-loaded sockets.
//   - Epoch[ch] is the change epoch of airflow channel ch, indexed row-major
//     (row*Lanes + lane) as airflow.Model.Channel. It stays unchanged only
//     while every State-visible quantity of the channel's sockets — the
//     vectors above (Pewma included, and so SocketTemp) and Busy — is
//     bit-unchanged since the epoch was last observed. Any mutation (a
//     thermal sweep that was not an exact identity, a
//     placement/completion/migration, a fault application, a state restore)
//     advances it first. Schedulers use it to memoize per-socket
//     predictions and replay them on an unchanged epoch: exact by replay,
//     since an unchanged epoch proves every input bit-identical.
//   - Ladder is the simulation's one frequency search (see LadderSearch),
//     value-keyed and so never invalidated. The power manager picks through
//     it too, so a scheduler's prediction for a busy socket is usually the
//     memo entry the socket's last pick left.
type StateVectors struct {
	Amb    []units.Celsius
	Pewma  []units.Watts
	RExt   []float64
	Hist   []units.Celsius
	Job    []*job.Job
	Leak   []chipmodel.Leakage
	Cap    []units.MHz
	Epoch  []uint64
	Ladder *LadderSearch
}

// SocketTemp returns the lumped socket temperature (heatsink mass, 30 s time
// constant): the ambient plus the socket's power average across the sink's
// external resistance. It is the paper's "instantaneous socket temperature"
// that the temperature-ordering policies (CF, HF, MinHR, CN, Balanced,
// Balanced-L, A-Random) read, and the one expression the simulator's sweeps,
// history EWMA and recorder evaluate too, so every reader sees the same
// bits.
func (v *StateVectors) SocketTemp(id geometry.SocketID) units.Celsius {
	return v.Amb[id] + units.Celsius(float64(v.Pewma[id])*v.RExt[id])
}

// Scheduler picks a socket for a job from the non-empty idle set.
type Scheduler interface {
	// Name returns the policy's display name (matching the paper's labels).
	Name() string
	// Pick returns the chosen socket. idle is non-empty and sorted by ID.
	Pick(s State, j *job.Job, idle []geometry.SocketID) geometry.SocketID
}

// argBest returns the idle socket minimizing score, breaking ties by lowest
// socket ID for determinism.
func argBest(idle []geometry.SocketID, score func(geometry.SocketID) float64) geometry.SocketID {
	best := idle[0]
	bestScore := score(best)
	for _, id := range idle[1:] {
		if s := score(id); s < bestScore {
			best, bestScore = id, s
		}
	}
	return best
}

// CoolestFirst (CF) assigns jobs to the coldest socket [63][76][80] — the
// classical data-center policy the paper uses as the baseline.
type CoolestFirst struct{}

// Name implements Scheduler.
func (CoolestFirst) Name() string { return "CF" }

// Pick implements Scheduler.
func (CoolestFirst) Pick(s State, _ *job.Job, idle []geometry.SocketID) geometry.SocketID {
	v := s.Vectors()
	return argBest(idle, func(id geometry.SocketID) float64 {
		return float64(v.SocketTemp(id))
	})
}

// HottestFirst (HF) is the exact opposite of CF: it schedules work on the
// warmest idle socket. Counterintuitively strong in coupled systems because
// it keeps work away from upstream sockets.
type HottestFirst struct{}

// Name implements Scheduler.
func (HottestFirst) Name() string { return "HF" }

// Pick implements Scheduler.
func (HottestFirst) Pick(s State, _ *job.Job, idle []geometry.SocketID) geometry.SocketID {
	v := s.Vectors()
	return argBest(idle, func(id geometry.SocketID) float64 {
		return -float64(v.SocketTemp(id))
	})
}

// Random assigns jobs uniformly at random [63][76], approximating uniform
// power and thermal distribution.
type Random struct {
	rng rng
}

// NewRandom builds the policy with a deterministic seed.
func NewRandom(seed uint64) *Random { return &Random{rng: newRNG(seed)} }

// Name implements Scheduler.
func (*Random) Name() string { return "Random" }

// Pick implements Scheduler.
func (r *Random) Pick(_ State, _ *job.Job, idle []geometry.SocketID) geometry.SocketID {
	return idle[r.rng.Intn(len(idle))]
}

// MinHR minimizes heat recirculation [63]: using the offline heat-transfer
// map (the airflow model's coupling coefficients), it places each job on the
// idle socket whose heat affects the rest of the server least; ties (all
// sockets of the same zone have equal recirculation factors) are broken by
// current coolness.
type MinHR struct{}

// Name implements Scheduler.
func (MinHR) Name() string { return "MinHR" }

// Pick implements Scheduler.
func (MinHR) Pick(s State, _ *job.Job, idle []geometry.SocketID) geometry.SocketID {
	af := s.Airflow()
	v := s.Vectors()
	return argBest(idle, func(id geometry.SocketID) float64 {
		// Primary: recirculation factor; secondary: temperature.
		return af.RecirculationFactor(id)*1e6 + float64(v.SocketTemp(id))
	})
}

// CoolestNeighbors (CN) [54] extends CF with the neighborhood: it scores a
// location by its own temperature plus the mean of its neighbors', placing
// jobs where the whole vicinity is cool.
type CoolestNeighbors struct{}

// Name implements Scheduler.
func (CoolestNeighbors) Name() string { return "CN" }

// Pick implements Scheduler.
func (CoolestNeighbors) Pick(s State, _ *job.Job, idle []geometry.SocketID) geometry.SocketID {
	srv := s.Server()
	v := s.Vectors()
	return argBest(idle, func(id geometry.SocketID) float64 {
		own := float64(v.SocketTemp(id))
		var nsum float64
		var buf [6]geometry.SocketID
		neigh := srv.AppendNeighbors(buf[:0], id)
		for _, n := range neigh {
			nsum += float64(v.SocketTemp(n))
		}
		if len(neigh) == 0 {
			return own * 2
		}
		return own + nsum/float64(len(neigh))
	})
}

// Balanced [54][55] maintains a uniform thermal profile by scheduling work
// as far as possible from the current hottest point of the server.
type Balanced struct{}

// Name implements Scheduler.
func (Balanced) Name() string { return "Balanced" }

// Pick implements Scheduler.
func (Balanced) Pick(s State, _ *job.Job, idle []geometry.SocketID) geometry.SocketID {
	srv := s.Server()
	v := s.Vectors()
	// Locate the hottest socket in the whole server (IDs ascending, first
	// maximum wins).
	hottest := geometry.SocketID(0)
	hotT := units.Celsius(-1e9)
	for i := range v.Amb {
		if t := v.SocketTemp(geometry.SocketID(i)); t > hotT {
			hottest, hotT = geometry.SocketID(i), t
		}
	}
	return argBest(idle, func(id geometry.SocketID) float64 {
		return -float64(srv.Distance(hottest, id))
	})
}

// BalancedLocations (Balanced-L) [55] prefers locations that are expected to
// be coolest structurally — those nearest the air inlets — breaking ties by
// current temperature.
type BalancedLocations struct{}

// Name implements Scheduler.
func (BalancedLocations) Name() string { return "Balanced-L" }

// Pick implements Scheduler.
func (BalancedLocations) Pick(s State, _ *job.Job, idle []geometry.SocketID) geometry.SocketID {
	srv := s.Server()
	v := s.Vectors()
	return argBest(idle, func(id geometry.SocketID) float64 {
		x, _, _ := srv.Position(id)
		return float64(x)*1e6 + float64(v.SocketTemp(id))
	})
}

// AdaptiveRandom (A-Random) [54] is a CF variant with memory: among the
// sockets whose current temperature is within a band of the coolest, it
// picks randomly from those with the lowest historical temperature, weeding
// out locations that are consistently hot.
type AdaptiveRandom struct {
	rng rng
	// Band is the temperature slack (C) for candidate sets.
	Band float64
	// cands and finals are the two candidate bands, reused across Picks so
	// the placement path does not allocate.
	cands, finals []geometry.SocketID
}

// NewAdaptiveRandom builds the policy with a deterministic seed and the
// default 1C candidate band.
func NewAdaptiveRandom(seed uint64) *AdaptiveRandom {
	return &AdaptiveRandom{rng: newRNG(seed), Band: 1.0}
}

// Name implements Scheduler.
func (*AdaptiveRandom) Name() string { return "A-Random" }

// Pick implements Scheduler.
func (a *AdaptiveRandom) Pick(s State, _ *job.Job, idle []geometry.SocketID) geometry.SocketID {
	v := s.Vectors()
	// Coolest-current band.
	minCur := float64(v.SocketTemp(idle[0]))
	for _, id := range idle[1:] {
		if t := float64(v.SocketTemp(id)); t < minCur {
			minCur = t
		}
	}
	a.cands = a.cands[:0]
	for _, id := range idle {
		if float64(v.SocketTemp(id)) <= minCur+a.Band {
			a.cands = append(a.cands, id)
		}
	}
	// Lowest-history band within the candidates.
	hist := v.Hist
	minHist := float64(hist[a.cands[0]])
	for _, id := range a.cands[1:] {
		if t := float64(hist[id]); t < minHist {
			minHist = t
		}
	}
	a.finals = a.finals[:0]
	for _, id := range a.cands {
		if float64(hist[id]) <= minHist+a.Band {
			a.finals = append(a.finals, id)
		}
	}
	return a.finals[a.rng.Intn(len(a.finals))]
}

// Predictive [81][43] estimates, for every idle socket, the frequency the
// job would achieve there (through the Equation-1 two-step prediction) and
// places the job where it runs fastest; ties break toward cooler ambient.
// The estimate is PredictSocketFrequency's, read from the simulation's
// ladder search (StateVectors.Ladder), so the policy itself is stateless.
type Predictive struct{}

// Name implements Scheduler.
func (Predictive) Name() string { return "Predictive" }

// Pick implements Scheduler.
func (Predictive) Pick(s State, j *job.Job, idle []geometry.SocketID) geometry.SocketID {
	v := s.Vectors()
	bm := &j.Benchmark
	dm := bm.DynMax()
	return argBest(idle, func(id geometry.SocketID) float64 {
		f := LadderFreq(v.Ladder.Index(id, bm, dm, v.Amb[id]))
		if cap := v.Cap[id]; f > cap {
			f = cap
		}
		// Maximize frequency; among equal frequencies prefer cooler air.
		return -float64(f)*1e3 + float64(v.Amb[id])
	})
}

// PredictSocketFrequency estimates the frequency a job with the given
// dynamic-power curve would achieve on a socket: the Equation-1 two-step
// thermal prediction at the socket's ambient and leakage, capped at what its
// boost budget permits. It is the unmemoized reference for the estimate
// Predictive and CP read from the LadderSearch.
func PredictSocketFrequency(v *StateVectors, id geometry.SocketID, dyn chipmodel.DynamicPowerFn, sink chipmodel.Sink) units.MHz {
	f := chipmodel.PredictFrequency(v.Amb[id], dyn, sink, v.Leak[id])
	if cap := v.Cap[id]; f > cap {
		return cap
	}
	return f
}

// ByName constructs a scheduler from its paper label. Stochastic policies
// receive the given seed.
func ByName(name string, seed uint64) (Scheduler, error) {
	switch name {
	case "CF":
		return CoolestFirst{}, nil
	case "HF":
		return HottestFirst{}, nil
	case "Random":
		return NewRandom(seed), nil
	case "MinHR":
		return MinHR{}, nil
	case "CN":
		return CoolestNeighbors{}, nil
	case "Balanced":
		return Balanced{}, nil
	case "Balanced-L":
		return BalancedLocations{}, nil
	case "A-Random":
		return NewAdaptiveRandom(seed), nil
	case "Predictive":
		return Predictive{}, nil
	case "CP":
		return NewCouplingPredictor(seed), nil
	// CP ablation variants (not part of the paper's scheme set; used by the
	// ablation experiment and bench).
	case "CP-global":
		return NewCouplingPredictorOpts(seed, CPOptions{GlobalSearch: true}), nil
	case "CP-idleweighted":
		return NewCouplingPredictorOpts(seed, CPOptions{IdleWeighted: true}), nil
	case "CP-nobudget":
		return NewCouplingPredictorOpts(seed, CPOptions{IgnoreBudget: true}), nil
	case "CP-nocoupling":
		return NewCouplingPredictorOpts(seed, CPOptions{NoCoupling: true}), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q", name)
	}
}

// Names lists all policies in the paper's presentation order.
func Names() []string {
	return []string{"CF", "HF", "Random", "MinHR", "CN", "Balanced", "Balanced-L", "A-Random", "Predictive", "CP"}
}
