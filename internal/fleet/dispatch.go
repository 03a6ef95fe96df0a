package fleet

// The fleet dispatcher seam: routing policies that split the fleet arrival
// stream across chassis before any intra-chassis scheduler sees a job. The
// paper's question one level up — does awareness of thermal context pay
// before placement? — becomes the choice between these policies.
//
// Every policy is deterministic and sits behind one observe/pick interface,
// in one of two forms chosen by the loop mode. The estimated form (open loop)
// never reads observations: it routes over estimated chassis state, each
// routed job assumed to run for its nominal FMax duration. That estimate is
// deliberately crude — queueing and thermal throttling stretch real service
// times — but it needs nothing from the simulation, so the whole stream can
// be routed before any chassis simulates. The observed form (closed loop)
// ranks on the true per-chassis state the executor reports at every epoch
// boundary. Either way routing is a serial pass independent of the worker
// pool. Ties always break toward the lowest chassis index, and chassis are
// canonically ordered by (rack, slot), so the pick sequence is a pure
// function of (policy, fleet, stream, epoch period).

import (
	"fmt"
	"math"

	"densim/internal/chipmodel"
	"densim/internal/sim"
	"densim/internal/units"
)

// dispatcher is the fleet's one routing interface, and the control seam a
// gym-style external controller would implement: the executor calls observe
// with every chassis's true state (indexed by canonical chassis order) at
// each epoch boundary, including the fleet's t=0 state before the first
// window, and pick once per arrival to route it to a chassis index.
// Open-loop runs have no boundaries, so their dispatchers are never shown
// an observation.
type dispatcher interface {
	observe(obs []sim.Observation)
	pick(at, nominal units.Seconds) int
}

// newDispatcher builds the named policy over the fleet's chassis: the
// observed form when closed is set, else the estimated one. The empty name
// is round-robin, which has a single form — the cycle ignores observations
// by construction.
func newDispatcher(name string, chassis []Chassis, closed bool) (dispatcher, error) {
	switch name {
	case "", "round-robin":
		return &roundRobin{n: len(chassis)}, nil
	case "least-loaded", "thermal":
		thermal := name == "thermal"
		if closed {
			return newObserved(chassis, thermal), nil
		}
		return newEstimated(chassis, thermal), nil
	default:
		return nil, fmt.Errorf("fleet: unknown dispatcher %q", name)
	}
}

// roundRobin cycles the chassis in canonical order — the zero-knowledge
// baseline every informed policy has to beat. Because it ignores
// observations, closed-loop round-robin routes bit-identical per-chassis
// streams to open-loop round-robin, which is what proves the epoch windows
// themselves are bit-exact (TestClosedLoopRoundRobin).
type roundRobin struct{ n, next int }

func (r *roundRobin) observe([]sim.Observation) {}

func (r *roundRobin) pick(units.Seconds, units.Seconds) int {
	i := r.next
	r.next = (r.next + 1) % r.n
	return i
}

// estimated is the open-loop form of the informed policies: it tracks
// per-chassis in-flight work as a min-heap of estimated completion instants
// (dispatch time + nominal duration). Least-loaded ranks by estimated
// utilization alone, thermal scales each chassis's ambient headroom by its
// estimated idleness — a hot-aisle chassis only wins when the cool ones are
// busy enough to have spent their advantage.
type estimated struct {
	chassis  []Chassis
	inflight []completionHeap
	thermal  bool
}

func newEstimated(chassis []Chassis, thermal bool) *estimated {
	return &estimated{
		chassis:  chassis,
		inflight: make([]completionHeap, len(chassis)),
		thermal:  thermal,
	}
}

func (e *estimated) observe([]sim.Observation) {}

func (e *estimated) pick(at, nominal units.Seconds) int {
	best, bestScore := 0, 0.0
	for i := range e.chassis {
		// Retire estimated completions that are due by this arrival.
		h := &e.inflight[i]
		h.retire(at)
		util := float64(len(*h)) / float64(e.chassis[i].Sockets)
		var score float64
		if e.thermal {
			// Ambient headroom (how far the inlet sits below the throttle
			// ceiling) discounted by estimated utilization. Estimated
			// utilization above 1 (a backlog) goes negative and ranks last.
			headroom := float64(chipmodel.TempLimit - e.chassis[i].Inlet)
			score = headroom * (1 - util)
		} else {
			// Least-loaded: lower utilization is better.
			score = -util
		}
		if i == 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	e.inflight[best].push(at + nominal)
	return best
}

// completionHeap is a min-heap of estimated completion instants. Its
// readers only ever need the length and the minimum ((*h)[0]), so it is
// typed rather than a container/heap.Interface: no interface boxing, no
// allocation per push beyond the slice's amortized growth. The sift order
// matches container/heap's exactly.
type completionHeap []units.Seconds

// push inserts one completion instant.
func (h *completionHeap) push(t units.Seconds) {
	*h = append(*h, t)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// pop removes and returns the earliest completion instant.
func (h *completionHeap) pop() units.Seconds {
	s := *h
	n := len(s) - 1
	first := s[0]
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s[r] < s[m] {
			m = r
		}
		if s[i] <= s[m] {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return first
}

// retire pops every completion due by t.
func (h *completionHeap) retire(t units.Seconds) {
	for len(*h) > 0 && (*h)[0] <= t {
		h.pop()
	}
}

// observed is the closed-loop form of the informed policies: instead of a
// min-heap of assumed completion instants, it ranks on the in-flight depth
// and ambient headroom each chassis actually reported at the last boundary,
// plus the jobs routed to it within the current window (pending —
// dispatched but not yet visible in any observation). Dead sockets shrink a
// chassis's capacity, so a half-dead chassis saturates at half the load —
// state the open-loop estimator cannot see at all.
type observed struct {
	chassis  []Chassis
	thermal  bool
	inflight []int     // observed queue depth + busy sockets at the boundary
	pending  []int     // routed this window, not yet observable
	headroom []float64 // observed hottest-socket headroom (C)
	alive    []int     // sockets still able to take work
}

func newObserved(chassis []Chassis, thermal bool) *observed {
	o := &observed{
		chassis:  chassis,
		thermal:  thermal,
		inflight: make([]int, len(chassis)),
		pending:  make([]int, len(chassis)),
		headroom: make([]float64, len(chassis)),
		alive:    make([]int, len(chassis)),
	}
	// Pre-observation state mirrors an idle fleet; the executor always
	// observes before the first pick, so these are only a safety floor.
	for i := range chassis {
		o.headroom[i] = float64(chipmodel.TempLimit - chassis[i].Inlet)
		o.alive[i] = chassis[i].Sockets
	}
	return o
}

func (o *observed) observe(obs []sim.Observation) {
	for i := range obs {
		o.inflight[i] = obs[i].InFlight()
		o.headroom[i] = obs[i].HeadroomC
		o.alive[i] = obs[i].AliveSockets()
		o.pending[i] = 0
	}
}

func (o *observed) pick(_, _ units.Seconds) int {
	best, bestScore := 0, 0.0
	for i := range o.chassis {
		var score float64
		if o.alive[i] == 0 {
			// A fully dead chassis can complete nothing: rank it last
			// regardless of how much thermal headroom its idle hulk shows.
			score = math.Inf(-1)
		} else {
			util := float64(o.inflight[i]+o.pending[i]) / float64(o.alive[i])
			if o.thermal {
				// Observed hottest-socket headroom discounted by observed
				// utilization — the same shape as the open-loop score, with
				// both factors now live instead of estimated.
				score = o.headroom[i] * (1 - util)
			} else {
				score = -util
			}
		}
		if i == 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	o.pending[best]++
	return best
}
