// Package telemetry is the simulator's observability layer: counters,
// fixed-bucket histograms, per-lane ambient-rise extrema, and a bounded
// event ring, fed by hook sites inside internal/sim the same way the
// invariant harness (internal/check) is — via sim.Config, one nil-pointer
// test per hook. A nil *Telemetry costs the simulator nothing; an installed
// one records through preallocated storage, so the steady-state tick and
// event paths stay allocation-free with telemetry on or off.
//
// A Telemetry instance may be shared by concurrent runs (the sweep runner
// hands every seed of a scheduler the same instance), so all mutable state
// is either atomic or mutex-guarded. The simulator does not hit those
// atomics per event: each run records into a private Local (plain field
// increments, see local.go) and flushes batches into the shared instance
// every few ticks — that batching, plus sampled pick timing, keeps the
// enabled overhead under 5% of wall clock on a loaded simulation.
//
// Two sinks read the accumulated state: a Prometheus-style text exposition
// (see prometheus.go, served by the -telemetry.addr flag on cmd/sweep and
// cmd/densim) and a JSONL run trace for offline analysis (see jsonl.go,
// written by cmd/timeline and cmd/densim -telemetry.trace, re-rendered by
// cmd/timeline -render).
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"densim/internal/units"
)

// CounterID names one monotonic counter.
type CounterID int

// The counter set. Every hook site increments exactly one of these.
const (
	// CTicks counts power-manager ticks.
	CTicks CounterID = iota
	// CArrivals counts jobs admitted to the queue.
	CArrivals
	// CPicks counts scheduler placement decisions.
	CPicks
	// CPlacements counts jobs started on a socket.
	CPlacements
	// CCompletions counts jobs finished.
	CCompletions
	// CMigrations counts migration moves.
	CMigrations
	// CThrottleDown counts DVFS re-picks that lowered a busy socket's
	// P-state (throttle onset or deepening).
	CThrottleDown
	// CThrottleUp counts DVFS re-picks that raised a busy socket's P-state
	// (thermal headroom recovered).
	CThrottleUp
	// CStrideTicks counted the ticks of the removed dead-tail stride.
	// Nothing feeds it any more; it stays, always zero, like CWorkerShards.
	CStrideTicks
	// CLaneSkips counts airflow channels whose ambient recompute the
	// dirty-lane engine skipped because the channel's powers were unchanged.
	CLaneSkips
	// CWorkerShards counted the shards of the removed intra-run tick pool.
	// Nothing feeds it any more; it stays, always zero, so the exposition
	// indices and names of the counters after it are unchanged.
	CWorkerShards
	// CSettledTicks counts power-manager ticks whose thermal/DVFS sweep the
	// engine skipped because every lane was at a bit-exact fixed point (each
	// is also counted in CTicks).
	CSettledTicks
	// CFaultEvents counts fault-timeline steps applied (fan events, inlet
	// ramps, socket deaths, throttle windows opening and closing).
	CFaultEvents
	// CRequeues counts jobs displaced back into the queue by socket-death
	// faults.
	CRequeues
	// CDispatched counts jobs a fleet dispatcher routed to this chassis
	// before intra-chassis scheduling (internal/fleet). Zero outside fleet
	// runs.
	CDispatched
	// CEpochs counts closed-loop fleet epochs this chassis was stepped
	// through (internal/fleet's executor). Zero on open-loop runs.
	CEpochs
	// CObservations counts observation snapshots taken of this chassis at
	// epoch boundaries (sim.Observe calls on the fleet's behalf).
	CObservations
	// CDispatchEstErr accumulates, over epoch boundaries, the absolute
	// divergence between the open-loop dispatcher's estimated in-flight job
	// count and the chassis's observed queue depth plus busy sockets — the
	// price of dispatching on estimates, made measurable.
	CDispatchEstErr
	// CEventTicks counts power-manager ticks the event engine executed in
	// unified-queue gap advances — settled spans where the loop walked
	// straight from event to event (each is also counted in CTicks and
	// CSettledTicks, so those stay comparable across engines).
	CEventTicks

	numCounters
)

// counterNames maps CounterID to its exposition name.
var counterNames = [numCounters]string{
	CTicks:          "ticks",
	CArrivals:       "arrivals",
	CPicks:          "picks",
	CPlacements:     "placements",
	CCompletions:    "completions",
	CMigrations:     "migrations",
	CThrottleDown:   "throttle_down",
	CThrottleUp:     "throttle_up",
	CStrideTicks:    "strided_ticks",
	CLaneSkips:      "skipped_lanes",
	CWorkerShards:   "worker_shards",
	CSettledTicks:   "settled_ticks",
	CFaultEvents:    "fault_events",
	CRequeues:       "requeues",
	CDispatched:     "dispatched",
	CEpochs:         "epochs",
	CObservations:   "observations",
	CDispatchEstErr: "dispatch_est_err",
	CEventTicks:     "event_ticks",
}

// Name returns the counter's exposition name.
func (id CounterID) Name() string { return counterNames[id] }

// EngineCounters lists the counters fed by the event engine rather than by
// simulation events. Engine-equivalence comparisons exclude
// exactly these: every other counter must match bit-for-bit across engines.
func EngineCounters() []CounterID {
	return []CounterID{CStrideTicks, CLaneSkips, CWorkerShards, CSettledTicks, CEventTicks}
}

// maxZones bounds the chosen-socket zone counter vector (the SUT has 6
// zones; index 0 is unused, out-of-range zones fold into the last slot).
const maxZones = 16

// Telemetry accumulates one run's (or one label's worth of runs')
// instrumentation. Construct with New; the zero value is not usable.
type Telemetry struct {
	label string

	counters [numCounters]atomic.Int64
	// zonePicks counts placement decisions by the chosen socket's zone.
	zonePicks [maxZones]atomic.Int64

	// PickLatency observes the wall-clock cost of each scheduler Pick call
	// (seconds). QueueWait observes each placed job's time from arrival to
	// placement (simulated seconds).
	PickLatency *Histogram
	// QueueWait observes queueing delay at placement (simulated seconds).
	QueueWait *Histogram

	// laneRise tracks, per airflow lane (row-major row*lanes+lane), the
	// maximum observed socket ambient rise over the inlet, as atomic max.
	mu       sync.Mutex
	laneRise []atomicFloatMax
	inletC   float64
	began    bool

	ring *Ring
}

// New constructs a Telemetry labeled for exposition (typically the
// scheduler name, or an aggregate label like "sweep").
func New(label string) *Telemetry {
	return &Telemetry{
		label:       label,
		PickLatency: NewHistogram(PickLatencyBuckets()),
		QueueWait:   NewHistogram(QueueWaitBuckets()),
		ring:        NewRing(DefaultRingCapacity),
	}
}

// DefaultRingCapacity bounds the event ring: old events are overwritten
// once a run produces more, and the drop is counted (Dropped).
const DefaultRingCapacity = 8192

// Label returns the exposition label.
func (t *Telemetry) Label() string { return t.label }

// Begin arms the instance for a run over a topology with the given number
// of airflow lanes and inlet temperature. It is idempotent and safe for
// concurrent runs sharing the instance: the lane vector only grows.
func (t *Telemetry) Begin(lanes int, inlet units.Celsius) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lanes > len(t.laneRise) {
		grown := make([]atomicFloatMax, lanes)
		copy(grown, t.laneRise)
		t.laneRise = grown
	}
	t.inletC = float64(inlet)
	t.began = true
}

// Counter returns a counter's current value.
func (t *Telemetry) Counter(id CounterID) int64 { return t.counters[id].Load() }

// ZonePicks returns the placement count for one zone (1-based).
func (t *Telemetry) ZonePicks(zone int) int64 {
	return t.zonePicks[foldZone(zone)].Load()
}

// foldZone clamps a zone index into the fixed counter vector.
func foldZone(zone int) int {
	if zone < 0 {
		return 0
	}
	if zone >= maxZones {
		return maxZones - 1
	}
	return zone
}

// LaneRiseMax returns a copy of the per-lane maximum ambient rise (C over
// inlet) observed so far.
func (t *Telemetry) LaneRiseMax() []float64 {
	t.mu.Lock()
	lanes := len(t.laneRise)
	t.mu.Unlock()
	out := make([]float64, lanes)
	for i := range out {
		out[i] = t.laneRise[i].Load()
	}
	return out
}

// Ring returns the bounded event ring.
func (t *Telemetry) Ring() *Ring { return t.ring }

// Hook sites — called from the simulator's hot paths. All of these are
// allocation-free.

// OnTick records one power-manager tick.
func (t *Telemetry) OnTick() { t.counters[CTicks].Add(1) }

// OnArrival records one admitted job.
func (t *Telemetry) OnArrival() { t.counters[CArrivals].Add(1) }

// OnDispatch records one job the fleet dispatcher routed to this chassis.
func (t *Telemetry) OnDispatch() { t.counters[CDispatched].Add(1) }

// OnEpoch records one closed-loop fleet epoch this chassis stepped through.
func (t *Telemetry) OnEpoch() { t.counters[CEpochs].Add(1) }

// OnObservation records one observation snapshot taken of this chassis.
func (t *Telemetry) OnObservation() { t.counters[CObservations].Add(1) }

// OnDispatchEstErr folds one epoch boundary's |estimated − observed|
// in-flight divergence into the estimate-drift account.
func (t *Telemetry) OnDispatchEstErr(absErr int64) {
	if absErr > 0 {
		t.counters[CDispatchEstErr].Add(absErr)
	}
}

// PickSampleInterval is the pick-latency sampling period: TimeThisPick asks
// the caller to wall-clock one pick in this many (a power of two). Timing
// every pick costs two time.Now calls per placement — several percent of a
// loaded simulation — for a histogram that converges just as well sampled.
const PickSampleInterval = 16

// TimeThisPick reports whether the caller should measure the wall-clock
// latency of its next Pick call and pass it to OnPick (one pick in
// PickSampleInterval; the rest pass a negative latency).
func (t *Telemetry) TimeThisPick() bool {
	return t.counters[CPicks].Load()&(PickSampleInterval-1) == 0
}

// OnPick records one scheduler placement decision: the chosen socket's zone
// always, and the pick's wall-clock latency when sampled (negative latency
// = unsampled, counted but not observed).
func (t *Telemetry) OnPick(latency time.Duration, zone int) {
	t.counters[CPicks].Add(1)
	t.zonePicks[foldZone(zone)].Add(1)
	if latency >= 0 {
		t.PickLatency.Observe(latency.Seconds())
	}
}

// OnPlace records a job starting on a socket after wait seconds in queue.
func (t *Telemetry) OnPlace(at units.Seconds, socket, zone int, wait units.Seconds) {
	t.counters[CPlacements].Add(1)
	t.QueueWait.Observe(float64(wait))
	t.ring.Push(Event{At: at, Kind: EvPlace, Socket: int32(socket), Aux: int32(zone), V1: float64(wait)})
}

// OnComplete records a job finishing: sojourn is arrival-to-done, service
// is start-to-done (simulated seconds).
func (t *Telemetry) OnComplete(at units.Seconds, socket int, sojourn, service units.Seconds) {
	t.counters[CCompletions].Add(1)
	t.ring.Push(Event{At: at, Kind: EvComplete, Socket: int32(socket), V1: float64(sojourn), V2: float64(service)})
}

// OnMigrate records a migration from src to dst.
func (t *Telemetry) OnMigrate(at units.Seconds, src, dst int) {
	t.counters[CMigrations].Add(1)
	t.ring.Push(Event{At: at, Kind: EvMigrate, Socket: int32(src), Aux: int32(dst)})
}

// OnThrottle records a DVFS transition on a busy socket from one P-state
// to another (MHz). Direction is derived from the sign of the change.
func (t *Telemetry) OnThrottle(at units.Seconds, socket int, from, to units.MHz) {
	if to < from {
		t.counters[CThrottleDown].Add(1)
	} else {
		t.counters[CThrottleUp].Add(1)
	}
	t.ring.Push(Event{At: at, Kind: EvThrottle, Socket: int32(socket), V1: float64(from), V2: float64(to)})
}

// ObserveLaneRise folds one socket's current ambient rise over the inlet
// into its lane's running maximum.
func (t *Telemetry) ObserveLaneRise(lane int, rise float64) {
	if lane < 0 || lane >= len(t.laneRise) {
		return
	}
	t.laneRise[lane].Max(rise)
}

// atomicFloatMax is a non-negative float64 running maximum with atomic
// updates (the bits live in a uint64, whose zero value is +0.0 — the
// natural floor for ambient rise, which is physically non-negative).
type atomicFloatMax struct {
	bits atomic.Uint64
}

// Max folds v into the maximum; values below the current maximum (and
// negative values, which cannot beat the +0.0 floor) are no-ops.
func (a *atomicFloatMax) Max(v float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Load returns the current maximum (0 if nothing above zero was observed).
func (a *atomicFloatMax) Load() float64 {
	return math.Float64frombits(a.bits.Load())
}
