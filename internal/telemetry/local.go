package telemetry

import (
	"time"

	"densim/internal/units"
)

// Local is a single-run, single-goroutine accumulator in front of a shared
// Telemetry instance. The simulator's hot paths cost one plain field
// increment per hook — no atomics, no locks — and Flush folds the batch
// into the shared instance (a few dozen atomic operations per flush, which
// the simulator schedules every few ticks). This is what keeps the enabled
// overhead within the PR's ≤5% wall-clock budget: per-event lock-prefixed
// operations at tens of thousands of events per simulated second cost more
// than the simulation work they observe.
//
// A Local must not be shared across goroutines; each concurrent run gets
// its own (the same contract as check.Checks). The shared Telemetry behind
// it aggregates any number of Locals safely.
type Local struct {
	t *Telemetry

	counters  [numCounters]int64
	zonePicks [maxZones]int64
	pickSeq   int64 // total picks this run; drives sampling, never reset

	pickLat   localHist
	queueWait localHist

	laneRise []float64 // per-lane running max, folded with CAS on Flush

	events []Event // bounded buffer, burst-pushed to the ring
}

// localHist mirrors a Histogram's buckets without atomics.
type localHist struct {
	uppers []float64
	counts []int64 // len(uppers)+1
	sumNs  int64
}

func newLocalHist(h *Histogram) localHist {
	return localHist{uppers: h.uppers, counts: make([]int64, len(h.counts))}
}

func (l *localHist) observe(v float64) {
	i := 0
	for i < len(l.uppers) && v > l.uppers[i] {
		i++
	}
	l.counts[i]++
	l.sumNs += int64(v * 1e9)
}

// localEventBuffer bounds the per-run event batch; a full buffer flushes
// early so no event is lost between scheduled flushes.
const localEventBuffer = 1024

// NewLocal arms the shared instance for a run (Begin) and returns the
// run's private accumulator. lanes is the topology's airflow lane count.
func (t *Telemetry) NewLocal(lanes int, inlet units.Celsius) *Local {
	t.Begin(lanes, inlet)
	return &Local{
		t:         t,
		pickLat:   newLocalHist(t.PickLatency),
		queueWait: newLocalHist(t.QueueWait),
		laneRise:  make([]float64, lanes),
		events:    make([]Event, 0, localEventBuffer),
	}
}

// Hook sites — plain increments, allocation-free, single-goroutine.

// OnTick records one power-manager tick.
func (l *Local) OnTick() { l.counters[CTicks]++ }

// OnLaneSkips records n airflow channels whose ambient recompute the
// dirty-lane engine skipped this tick.
func (l *Local) OnLaneSkips(n int64) { l.counters[CLaneSkips] += n }

// OnSettledTick records one power-manager tick whose whole sweep was skipped
// because every lane sat at a bit-exact fixed point. The tick itself lands
// in CTicks through the regular OnTick call.
func (l *Local) OnSettledTick() { l.counters[CSettledTicks]++ }

// OnEventTick records one power-manager tick the event engine executed
// inside a unified-queue gap advance. The tick itself lands in CTicks (and
// CSettledTicks) through the regular settled-path calls.
func (l *Local) OnEventTick() { l.counters[CEventTicks]++ }

// OnArrival records one admitted job.
func (l *Local) OnArrival() { l.counters[CArrivals]++ }

// OnFaultEvent records one applied fault-timeline step.
func (l *Local) OnFaultEvent() { l.counters[CFaultEvents]++ }

// OnRequeue records one job displaced back to the queue by a socket death.
func (l *Local) OnRequeue() { l.counters[CRequeues]++ }

// TimeThisPick reports whether the caller should wall-clock its next Pick
// call (one in PickSampleInterval, counted per run).
func (l *Local) TimeThisPick() bool {
	return l.pickSeq&(PickSampleInterval-1) == 0
}

// OnPick records one placement decision: the chosen socket's zone always,
// the pick's wall-clock latency when sampled (negative = unsampled).
func (l *Local) OnPick(latency time.Duration, zone int) {
	l.pickSeq++
	l.counters[CPicks]++
	l.zonePicks[foldZone(zone)]++
	if latency >= 0 {
		l.pickLat.observe(latency.Seconds())
	}
}

// OnPlace records a job starting on a socket after wait seconds in queue.
func (l *Local) OnPlace(at units.Seconds, socket, zone int, wait units.Seconds) {
	l.counters[CPlacements]++
	l.queueWait.observe(float64(wait))
	l.push(Event{At: at, Kind: EvPlace, Socket: int32(socket), Aux: int32(zone), V1: float64(wait)})
}

// OnComplete records a job finishing: sojourn is arrival-to-done, service
// start-to-done (simulated seconds).
func (l *Local) OnComplete(at units.Seconds, socket int, sojourn, service units.Seconds) {
	l.counters[CCompletions]++
	l.push(Event{At: at, Kind: EvComplete, Socket: int32(socket), V1: float64(sojourn), V2: float64(service)})
}

// OnMigrate records a migration from src to dst.
func (l *Local) OnMigrate(at units.Seconds, src, dst int) {
	l.counters[CMigrations]++
	l.push(Event{At: at, Kind: EvMigrate, Socket: int32(src), Aux: int32(dst)})
}

// OnThrottle records a DVFS transition on a busy socket (MHz); direction
// comes from the sign of the change.
func (l *Local) OnThrottle(at units.Seconds, socket int, from, to units.MHz) {
	if to < from {
		l.counters[CThrottleDown]++
	} else {
		l.counters[CThrottleUp]++
	}
	l.push(Event{At: at, Kind: EvThrottle, Socket: int32(socket), V1: float64(from), V2: float64(to)})
}

// ObserveLaneRise folds one socket's ambient rise into its lane's run-local
// maximum (published on Flush).
func (l *Local) ObserveLaneRise(lane int, rise float64) {
	if lane < 0 || lane >= len(l.laneRise) {
		return
	}
	if rise > l.laneRise[lane] {
		l.laneRise[lane] = rise
	}
}

// push buffers an event, flushing the batch early if the buffer is full.
func (l *Local) push(e Event) {
	if len(l.events) == cap(l.events) {
		l.flushEvents()
	}
	l.events = append(l.events, e)
}

func (l *Local) flushEvents() {
	if len(l.events) > 0 {
		l.t.ring.PushBatch(l.events)
		l.events = l.events[:0]
	}
}

// Flush publishes everything accumulated since the previous Flush into the
// shared instance. The simulator calls it periodically (so a live Prometheus
// endpoint lags by at most a few ticks) and once at the end of the run;
// it is cheap enough for either cadence and allocation-free.
func (l *Local) Flush() {
	for id := CounterID(0); id < numCounters; id++ {
		if l.counters[id] != 0 {
			l.t.counters[id].Add(l.counters[id])
			l.counters[id] = 0
		}
	}
	for z := range l.zonePicks {
		if l.zonePicks[z] != 0 {
			l.t.zonePicks[z].Add(l.zonePicks[z])
			l.zonePicks[z] = 0
		}
	}
	l.t.PickLatency.merge(&l.pickLat)
	l.t.QueueWait.merge(&l.queueWait)
	for lane, rise := range l.laneRise {
		if rise > 0 {
			l.t.ObserveLaneRise(lane, rise)
		}
	}
	l.flushEvents()
}

// merge folds a local batch into the shared histogram and resets it.
func (h *Histogram) merge(l *localHist) {
	var n int64
	for i, c := range l.counts {
		if c != 0 {
			h.counts[i].Add(c)
			n += c
			l.counts[i] = 0
		}
	}
	if n != 0 {
		h.count.Add(n)
	}
	if l.sumNs != 0 {
		h.sumNs.Add(l.sumNs)
		l.sumNs = 0
	}
}
