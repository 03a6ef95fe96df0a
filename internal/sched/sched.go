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
// the simulation's one ladder search (StateVectors.Ladder), the same one
// its power manager picks through.
//
// A pick scores every idle socket, many times per tick, while the inputs
// of most scores have not moved. So the costly parts of a score are
// answered without recomputation, exactly:
//
//   - Frequencies come from the ladder search's admissibility rows, seeded
//     once per benchmark and (sink, leakage) class, which decide nearly
//     every probe with two compares and return exactly what a fresh
//     prediction would. Predictive and CP read it.
//   - Lane epochs (StateVectors.Epoch): CN re-reads a channel's socket
//     temperatures only when its epoch moved, and rescores only the
//     sockets next to a temperature that changed; Balanced keeps each
//     channel's hottest socket until the channel moves. An unchanged epoch
//     proves every input the channel contributes bit-identical, so the
//     replayed value is the one a fresh evaluation would produce; epochs
//     are only ever compared for equality, never ordered. Each of these
//     policies binds its memo to the StateVectors it was filled from and
//     empties it when handed another simulation's, whose epochs restart.
//
// Predictive also skips the estimate of every socket whose score cannot
// beat the best so far (see Predictive.Pick). CF, HF, MinHR, Balanced-L
// and A-Random score a socket with a handful of loads, cheaper than any
// memo lookup, and Random scores nothing; CP reads the ladder search and
// its own leakage memo. Picks are bit-identical to the unmemoized
// policies, ties going to the lowest socket ID. Schedulers must be
// deterministic given their construction-time seed.
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
// Ladder is the one exception: schedulers may resolve a benchmark's curve
// through its Curve method, and may write nothing else.
//
//   - Amb[i] is the socket's current entry air temperature.
//   - Pewma[i] is the socket's 30-second power average, the heatsink-mass
//     state behind SocketTemp.
//   - RExt[i] is the external thermal resistance of the socket's heat sink
//     (chipmodel.Sink.RExt), a per-socket constant.
//   - Hist[i] is a slow-moving average of the socket temperature (the
//     history input of A-Random).
//   - Curve[i] is the running job's curve (LadderCurve), nil while the
//     socket is idle or dead.
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
//     since an unchanged epoch proves every input bit-identical. CN
//     re-reads, on each pick, the socket temperatures of the channels whose
//     epoch moved since the last pick; Balanced rescans only those channels
//     for the hottest socket. Only equality is ever tested, and only within
//     one simulation: a new simulation's epochs restart at zero, so a memo
//     is bound to the StateVectors it was filled from.
//   - Ladder is the simulation's one frequency search (see LadderSearch):
//     one read-only curve per benchmark, with an admissibility row per
//     (sink, leakage) class, exact at any ambient and so never invalidated.
//     The power manager picks through it too.
type StateVectors struct {
	Amb    []units.Celsius
	Pewma  []units.Watts
	RExt   []float64
	Hist   []units.Celsius
	Curve  []*LadderCurve
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
//
// A score reads the socket temperatures of the socket and its neighbours.
// CN keeps every socket's temperature and score. On each pick it
// re-evaluates the temperatures of the channels whose epoch moved since the
// last pick (see StateVectors.Epoch) and marks stale the scores that read a
// temperature that changed, so a pick rescores only the sockets whose
// neighbourhood got warmer or cooler — not those next to a placement, which
// moves an epoch but no temperature until the next sweep.
type CoolestNeighbors struct {
	vec *StateVectors
	srv *geometry.Server
	// Compressed sparse rows, built once per server: socket i's neighbours
	// are nbrs[nbrOff[i]:nbrOff[i+1]] in AppendNeighbors order. Adjacency
	// is symmetric, so they are also the other sockets whose score reads
	// socket i's temperature.
	nbrOff, nbrs []int32
	// seen[ch] is channel ch's epoch at the last pick, temp[i] socket i's
	// temperature as of then; val[i] is socket i's score unless stale[i].
	seen  []uint64
	temp  []float64
	stale []bool
	val   []float64
}

// Name implements Scheduler.
func (*CoolestNeighbors) Name() string { return "CN" }

// Pick implements Scheduler.
func (cn *CoolestNeighbors) Pick(s State, _ *job.Job, idle []geometry.SocketID) geometry.SocketID {
	v, af := s.Vectors(), s.Airflow()
	if v != cn.vec {
		cn.reset(s, v)
	}
	for ch, e := range v.Epoch {
		if cn.seen[ch] == e {
			continue
		}
		cn.seen[ch] = e
		for _, id := range af.Channel(ch) {
			if t := float64(v.SocketTemp(id)); t != cn.temp[id] {
				cn.temp[id] = t
				cn.stale[id] = true
				for _, n := range cn.nbrs[cn.nbrOff[id]:cn.nbrOff[id+1]] {
					cn.stale[n] = true
				}
			}
		}
	}
	return argBest(idle, func(id geometry.SocketID) float64 {
		if cn.stale[id] {
			cn.stale[id] = false
			own := cn.temp[id]
			cn.val[id] = own * 2
			if neigh := cn.nbrs[cn.nbrOff[id]:cn.nbrOff[id+1]]; len(neigh) > 0 {
				var nsum float64
				for _, n := range neigh {
					nsum += cn.temp[n]
				}
				cn.val[id] = own + nsum/float64(len(neigh))
			}
		}
		return cn.val[id]
	})
}

// reset binds the memo to a new simulation's state, reading every
// temperature afresh with every score stale, and lays out the neighbour
// rows when the server is new too.
func (cn *CoolestNeighbors) reset(s State, v *StateVectors) {
	srv := s.Server()
	n := srv.NumSockets()
	if srv != cn.srv {
		cn.nbrOff = make([]int32, n+1)
		var nb [6]geometry.SocketID
		for i := 0; i < n; i++ {
			cn.nbrOff[i+1] = cn.nbrOff[i] + int32(len(srv.AppendNeighbors(nb[:0], geometry.SocketID(i))))
		}
		cn.nbrs = make([]int32, 0, cn.nbrOff[n])
		for i := 0; i < n; i++ {
			for _, id := range srv.AppendNeighbors(nb[:0], geometry.SocketID(i)) {
				cn.nbrs = append(cn.nbrs, int32(id))
			}
		}
		cn.seen = make([]uint64, len(v.Epoch))
		cn.temp = make([]float64, n)
		cn.stale = make([]bool, n)
		cn.val = make([]float64, n)
		cn.srv = srv
	}
	copy(cn.seen, v.Epoch)
	for i := 0; i < n; i++ {
		cn.temp[i] = float64(v.SocketTemp(geometry.SocketID(i)))
		cn.stale[i] = true
	}
	cn.vec = v
}

// Balanced [54][55] maintains a uniform thermal profile by scheduling work
// as far as possible from the current hottest point of the server.
//
// It keeps the hottest socket of each airflow channel under the channel's
// epoch, so a pick rescans only the channels that changed since the last
// one, and each socket's distance from the hottest point under that point's
// ID.
type Balanced struct {
	vec *StateVectors
	srv *geometry.Server
	// hotID[ch] is channel ch's hottest socket above the -1e9 floor (-1 for
	// none) and hotT[ch] its temperature, as of epoch hotEpoch[ch].
	hotEpoch []uint64
	hotID    []geometry.SocketID
	hotT     []units.Celsius
	// dist[i] is -Distance(distFrom[i], i), distFrom[i] -1 for none.
	distFrom []int32
	dist     []float64
}

// Name implements Scheduler.
func (*Balanced) Name() string { return "Balanced" }

// Pick implements Scheduler.
func (b *Balanced) Pick(s State, _ *job.Job, idle []geometry.SocketID) geometry.SocketID {
	v, af := s.Vectors(), s.Airflow()
	if v != b.vec {
		b.reset(s, v, af)
	}
	// Locate the hottest socket in the whole server (first maximum in
	// ascending ID order), from each channel's lowest-ID maximum.
	hottest := geometry.SocketID(0)
	hotT := units.Celsius(-1e9)
	for ch, e := range v.Epoch {
		if b.hotEpoch[ch] != e {
			b.rescan(ch, af.Channel(ch))
			b.hotEpoch[ch] = e
		}
		if id := b.hotID[ch]; id >= 0 {
			if t := b.hotT[ch]; t > hotT || (t == hotT && id < hottest) {
				hottest, hotT = id, t
			}
		}
	}
	srv := b.srv
	return argBest(idle, func(id geometry.SocketID) float64 {
		if b.distFrom[id] != int32(hottest) {
			b.distFrom[id] = int32(hottest)
			b.dist[id] = -float64(srv.Distance(hottest, id))
		}
		return b.dist[id]
	})
}

// rescan finds the hottest of channel ch's sockets.
func (b *Balanced) rescan(ch int, members []geometry.SocketID) {
	hot, hotT := geometry.SocketID(-1), units.Celsius(-1e9)
	for _, id := range members {
		if t := b.vec.SocketTemp(id); t > hotT || (t == hotT && hot >= 0 && id < hot) {
			hot, hotT = id, t
		}
	}
	b.hotID[ch], b.hotT[ch] = hot, hotT
}

// reset binds the memo to a new simulation's state, rescanning every
// channel, and sizes the memos (emptying the distance memo) when the server
// is new too.
func (b *Balanced) reset(s State, v *StateVectors, af *airflow.Model) {
	if srv := s.Server(); srv != b.srv {
		nch, n := len(v.Epoch), srv.NumSockets()
		b.hotEpoch = make([]uint64, nch)
		b.hotID = make([]geometry.SocketID, nch)
		b.hotT = make([]units.Celsius, nch)
		b.distFrom = make([]int32, n)
		b.dist = make([]float64, n)
		for i := range b.distFrom {
			b.distFrom[i] = -1
		}
		b.srv = srv
	}
	b.vec = v
	for ch, e := range v.Epoch {
		b.rescan(ch, af.Channel(ch))
		b.hotEpoch[ch] = e
	}
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

// Pick implements Scheduler. It is argBest over the score below, except
// that it skips the estimate of a socket whose score cannot beat the best
// so far: no estimate exceeds min(Cap, FMax), so -1e3·min(Cap, FMax) + Amb
// bounds the score from below (float multiplication and addition round
// monotonically), and a later socket that only ties the best loses to the
// lower ID anyway. Most idle sockets can run the job at their cap, so a
// pick estimates little beyond the sockets cooler than its best so far.
func (Predictive) Pick(s State, j *job.Job, idle []geometry.SocketID) geometry.SocketID {
	v := s.Vectors()
	curve := v.Ladder.Curve(&j.Benchmark)
	score := func(id geometry.SocketID) float64 {
		f := LadderFreq(curve.Index(id, v.Amb[id]))
		if cap := v.Cap[id]; f > cap {
			f = cap
		}
		// Maximize frequency; among equal frequencies prefer cooler air.
		return -float64(f)*1e3 + float64(v.Amb[id])
	}
	best := idle[0]
	bestScore := score(best)
	for _, id := range idle[1:] {
		top := chipmodel.FMax
		if cap := v.Cap[id]; cap < top {
			top = cap
		}
		if -float64(top)*1e3+float64(v.Amb[id]) >= bestScore {
			continue
		}
		if sc := score(id); sc < bestScore {
			best, bestScore = id, sc
		}
	}
	return best
}

// PredictSocketFrequency estimates the frequency a job with the given
// dynamic-power curve (dyn[k] its power at chipmodel.Frequencies[k]) would
// achieve on a socket: the Equation-1 two-step thermal prediction at the
// socket's ambient and leakage, capped at what its boost budget permits. It
// is the unmemoized reference for the estimate Predictive, CP and the
// migration pass read from the LadderSearch.
func PredictSocketFrequency(v *StateVectors, id geometry.SocketID, dyn []units.Watts, sink chipmodel.Sink) units.MHz {
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
		return &CoolestNeighbors{}, nil
	case "Balanced":
		return &Balanced{}, nil
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
