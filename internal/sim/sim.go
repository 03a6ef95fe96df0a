// Package sim is the trace-driven simulator of Section III-D: a 180-socket
// density optimized server executing a probabilistic VDI job stream under a
// pluggable scheduling policy, with the thermal chain
//
//	socket powers --airflow network--> ambient targets
//	    --30s socket lag--> per-socket ambient
//	    --Equation 1 + 5ms chip lag--> peak chip temperature --> DVFS
//
// closed at every power-manager tick.
//
// Mechanics, following Table III and the surrounding prose:
//
//   - Jobs arrive by a Poisson process scaled to the target load and enter a
//     FIFO queue; a central controller places the head job on an idle socket
//     chosen by the scheduling policy (the paper's 1 usec scheduler poll is
//     modeled exactly by scheduling at arrival and completion instants —
//     nothing changes in between).
//   - The power manager runs every 1 ms: it updates the thermal state,
//     re-picks every busy socket's P-state (highest frequency whose
//     predicted peak stays under the 95 C limit, boost states included),
//     and power-gates idle sockets (which still draw 10% of TDP).
//   - Between ticks frequencies are constant, so job completions are
//     computed exactly, not discretized.
//   - Heat moves through two first-order stages per socket, matching the
//     two time constants of Table III: the socket-level ambient field
//     (stream air buffered by the heatsink masses) approaches the airflow
//     network's steady state with the 30 s socket time constant, and the
//     chip approaches the Equation-1 peak temperature for that ambient with
//     the 5 ms chip time constant.
//
// The thermal substrate is always the airflow network built from
// Config.Server and Config.Airflow, and the power policy is always Table
// III's. A run varies through its scheduler, its job source (the Poisson
// generator or a recorded trace), its fault timeline and its constants.
package sim

import (
	"fmt"
	"math"
	"time"

	"densim/internal/airflow"
	"densim/internal/check"
	"densim/internal/chipmodel"
	"densim/internal/fault"
	"densim/internal/geometry"
	"densim/internal/job"
	"densim/internal/metrics"
	"densim/internal/sched"
	"densim/internal/stats"
	"densim/internal/telemetry"
	"densim/internal/units"
	"densim/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	// Server is the topology; defaults to the 180-socket SUT.
	Server *geometry.Server
	// Airflow sets the thermal coupling model; zero value means defaults.
	Airflow airflow.Params
	// Scheduler is the placement policy (required).
	Scheduler sched.Scheduler
	// Mix and Load define the job stream (ignored if Source is set).
	Mix  workload.Mix
	Load float64
	// Source optionally feeds a custom job stream (e.g. a recorded trace)
	// instead of the Mix/Load Poisson generator.
	Source job.Source
	// Seed makes the run reproducible.
	Seed uint64
	// Duration is the arrival horizon: jobs arrive in [0, Duration) and the
	// run continues until the queue drains (bounded by DrainLimit).
	Duration units.Seconds
	// Warmup discards metrics before this time so results reflect the
	// quasi-steady thermal field rather than the cold start.
	Warmup units.Seconds
	// TickPeriod is the power manager period (Table III: 1 ms).
	TickPeriod units.Seconds
	// DrainLimit caps the post-horizon drain phase. Zero means
	// Duration + max(10s, Duration).
	DrainLimit units.Seconds
	// TDP of each socket (default: the X2150's 22 W).
	TDP units.Watts
	// HistoryTau is the time constant of the historical-temperature EWMA
	// used by A-Random (default 120 s).
	HistoryTau units.Seconds
	// SinkTau and ChipTau override the Table III thermal time constants
	// (30 s socket, 5 ms chip). Tests use a shortened SinkTau to reach the
	// quasi-steady thermal field quickly; experiments keep the defaults.
	SinkTau units.Seconds
	ChipTau units.Seconds
	// DisableBoost removes the opportunistic boost states entirely: the
	// ladder tops out at the sustained 1500 MHz (the conservative-governor
	// ablation).
	DisableBoost bool
	// BoostWindow is the averaging window of the BKDG boost budget the
	// paper cites [36] (default 2 s): boost states are opportunistic,
	// replenished by idle residency, and the tiers (boostTier1Util,
	// boostTier2Util) apply to the utilization EWMA over this window.
	BoostWindow units.Seconds
	// Migration optionally re-evaluates running jobs periodically and moves
	// throttled long jobs to faster sockets (see migration.go).
	Migration MigrationConfig
	// Probe, if set, is called after every power-manager tick with the live
	// simulator — for time-series capture and debugging. It must not mutate
	// the simulator.
	Probe func(s *Simulator, now units.Seconds)
	// Checks optionally installs the runtime invariant harness (package
	// internal/check): energy and work conservation, job-count closure,
	// thermal sanity, and completion-cache/heap audits are verified against
	// the live run. One Checks instance audits exactly one run — install a
	// fresh one per simulation and read its Err() after Run. Nil disables
	// all checking at zero cost (a single pointer test per hook site).
	Checks *check.Checks
	// Telemetry optionally installs the observability layer (package
	// internal/telemetry): counters, pick-latency and queue-wait
	// histograms, per-lane ambient-rise extrema, and a bounded event ring,
	// fed from the tick and event paths. Unlike Checks, an instance may be
	// shared by concurrent runs (it aggregates through atomics) — the sweep
	// runner hands every seed of a scheduler the same instance. Nil
	// disables instrumentation at zero cost (one pointer test per hook
	// site, no allocations).
	Telemetry *telemetry.Telemetry
	// Faults optionally injects a deterministic fault timeline — fan
	// degradation and failure, inlet transients, socket death with job
	// requeue, forced emergency throttles (see internal/fault). Steps apply
	// at the first tick boundary at or past their timestamp; fan and inlet
	// faults rebuild the airflow network at the new flow and inlet.
	Faults *fault.Spec
	// Engine selects how the tick loop executes: the event engine (the
	// zero value) or the serial reference — see engine.go. Both produce
	// bit-identical results.
	Engine EngineConfig
}

// Validate checks the required fields and value ranges of a Config without
// applying defaults, collecting the zero-value footguns into one clear
// error path: a zero Config fails here with a named field, not with a
// downstream panic or NaN. New calls it before defaulting; callers
// assembling configs by hand can call it directly.
func (c Config) Validate() error {
	if c.Scheduler == nil {
		return fmt.Errorf("sim: no scheduler configured (set Config.Scheduler)")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("sim: non-positive duration %v (set Config.Duration)", c.Duration)
	}
	if c.Warmup < 0 || c.Warmup >= c.Duration {
		return fmt.Errorf("sim: warmup %v outside [0, duration %v)", c.Warmup, c.Duration)
	}
	if c.Source == nil {
		if len(c.Mix.Benchmarks()) == 0 {
			return fmt.Errorf("sim: no workload configured (set Config.Mix or Config.Source)")
		}
		if c.Load < 0 {
			return fmt.Errorf("sim: negative load %v", c.Load)
		}
	}
	if c.TDP < 0 {
		return fmt.Errorf("sim: negative TDP %v", c.TDP)
	}
	if c.TickPeriod < 0 {
		return fmt.Errorf("sim: negative tick period %v", c.TickPeriod)
	}
	if c.Load > 0 && c.Source == nil && c.Mix.MeanDuration() <= 0 {
		return fmt.Errorf("sim: mix %q has non-positive mean duration", c.Mix.Name())
	}
	if err := c.Engine.Validate(); err != nil {
		return err
	}
	if c.Faults != nil {
		// Socket bounds are re-validated in New once the topology has
		// defaulted; -1 skips them when Server is still nil here.
		n := -1
		if c.Server != nil {
			n = c.Server.NumSockets()
		}
		if err := c.Faults.Validate(n); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

func (c Config) withDefaults() (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.Server == nil {
		c.Server = geometry.SUT()
	}
	if c.Airflow == (airflow.Params{}) {
		c.Airflow = airflow.DefaultParams()
	}
	if c.TickPeriod <= 0 {
		c.TickPeriod = 0.001
	}
	if c.DrainLimit <= 0 {
		extra := c.Duration
		if extra < 10 {
			extra = 10
		}
		c.DrainLimit = c.Duration + extra
	}
	if c.TDP <= 0 {
		c.TDP = workload.TDP
	}
	if c.HistoryTau <= 0 {
		c.HistoryTau = 120
	}
	if c.SinkTau <= 0 {
		c.SinkTau = chipmodel.SocketTimeConstant
	}
	if c.BoostWindow <= 0 {
		c.BoostWindow = 2
	}
	if c.ChipTau <= 0 {
		c.ChipTau = chipmodel.ChipTimeConstant
	}
	c.Migration = c.Migration.withDefaults()
	return c, nil
}

// The boost budget's utilization tiers: a socket whose utilization EWMA
// (over Config.BoostWindow) is at most boostTier1Util may use the full
// 1900 MHz boost; up to boostTier2Util it may use 1700 MHz; beyond that it
// is capped at the sustained 1500 MHz — "a fully loaded socket is expected
// to only be able to sustain the highest non-boosted frequency".
const (
	boostTier1Util = 0.85
	boostTier2Util = 0.95
)

// neverDone is the cached completion instant of a socket with no job.
var neverDone = units.Seconds(math.Inf(1))

// socketState is the event-path bookkeeping of one socket. Everything a
// scheduler or the tick sweep reads — occupancy (jobs) and the thermal/DVFS
// quantities — lives in the Simulator's parallel structure-of-arrays slices,
// keeping the sweep's inner loop cache-linear.
type socketState struct {
	lastUpdate units.Seconds
	// doneAt caches the completion instant of the running job at the
	// current frequency (neverDone while idle). It is mirrored into the
	// simulator's completion heap, so every write must go through
	// Simulator.setDoneAt / Simulator.refreshDoneAt.
	doneAt    units.Seconds
	placement metrics.JobPlacement
}

// setDoneAt writes socket i's cached completion instant and keeps the
// completion heap in sync.
func (s *Simulator) setDoneAt(i int, t units.Seconds) {
	s.sockets[i].doneAt = t
	s.comp.update(i, t)
}

// refreshDoneAt recomputes socket i's cached completion instant from its
// current job, frequency, and accounting point. Must be called after any
// change to busy, freq, Work, or lastUpdate.
func (s *Simulator) refreshDoneAt(i int) {
	s.setDoneAt(i, s.recomputeDoneAt(i))
}

// recomputeDoneAt returns the completion instant refreshDoneAt would cache,
// without writing it — the invariant harness compares it against the cached
// value to catch state changes that skipped the refresh.
func (s *Simulator) recomputeDoneAt(i int) units.Seconds {
	j := s.jobs[i]
	if j == nil {
		return neverDone
	}
	rate := j.Benchmark.RelPerf(s.freq[i])
	return s.sockets[i].lastUpdate + units.Seconds(float64(j.Work)/rate)
}

// Simulator runs one configured simulation. It implements sched.State: the
// StateVectors it hands out (vec, built once in New) alias its own
// structure-of-arrays slices.
type Simulator struct {
	cfg Config
	srv *geometry.Server
	// af is the airflow advection network: the tick loop integrates against
	// it and the schedulers read it through sched.State.Airflow. Fan and
	// inlet faults replace it with a rebuilt model (applyFlowPhysics).
	af *airflow.Model
	// leakAt, gatedPow and fmaxAt are the per-socket power constants: the
	// leakage model and power-gated idle draw for the socket's TDP, and the
	// SKU frequency ceiling (fmaxAt is nil on a homogeneous server; hetero
	// latches whether any cartridge carries a non-default SKU).
	leakAt   []chipmodel.Leakage
	gatedPow []units.Watts
	fmaxAt   []units.MHz
	hetero   bool
	// flt is the fault-injection runtime (nil when Config.Faults is unset:
	// every fault hook below is a single pointer test).
	flt     *faultState
	sockets []socketState
	// Hot per-socket state as parallel structure-of-arrays slices, indexed
	// by socket ID. The per-tick sweep walks them contiguously (channel
	// ranges are contiguous ID ranges), so the inner loop is cache-linear
	// instead of striding through an array of fat structs. powers doubles as
	// the airflow model's input vector — there is exactly one copy of each
	// socket's draw — and jobs, amb, pewma, hist, leakAt and caps double as
	// the schedulers' StateVectors.
	jobs   []*job.Job      // running job (nil while idle or dead)
	amb    []units.Celsius // socket ambient temperature (30 s lag)
	chip   []units.Celsius // peak chip temperature (5 ms lag)
	hist   []units.Celsius // slow EWMA for A-Random
	util   []float64       // recent utilization for the boost budget
	pewma  []units.Watts   // 30 s power average behind the socket temperature
	freq   []units.MHz     // current P-state (0 while idle)
	powers []units.Watts   // current total draw (dynamic + leakage or gated)
	// caps caches capFor(i, util[i]) — the StateVectors.Cap view, and the
	// one per-socket cache derived from other state. Its inputs change in
	// exactly three places, each of which refreshes it: the utilization
	// EWMA write in the two tick sweeps, the throttle-fault toggles in
	// applyFaults, and snapshot restore (which rewrites util and capped
	// wholesale). fmaxAt and the boost-tier config are immutable after New.
	// Audited against a fresh capFor by the invariant harness.
	caps []units.MHz
	// rext is the external thermal resistance of each socket's sink (the
	// StateVectors.RExt view), fixed in New like leakAt.
	rext []float64
	// vec is the schedulers' StateVectors over the slices above, built once
	// in New: none of them is reallocated afterwards, so State.Vectors is a
	// pointer return. Its SocketTemp is also the one socket-temperature
	// expression the sweeps, the history EWMA and the recorder evaluate.
	vec   sched.StateVectors
	queue job.Queue
	// jobPool recycles completed jobs' allocations into later arrivals,
	// keeping the steady-state event path allocation-free. Safe because a
	// completed job is unreachable once completeJob's hooks return: the
	// socket drops its pointer, the pick caches are invalidated, and every
	// metrics/telemetry/checks consumer copies values.
	jobPool job.Pool
	source  job.Source
	col     *metrics.Collector
	now     units.Seconds
	nextID  job.ID
	// ambBuf holds the most recent ambient recompute per socket. The serial
	// engine overwrites all of it every tick; the incremental engine treats
	// it as a cache, rewriting only channels whose powers changed.
	ambBuf []units.Celsius
	// idleSet is the sorted idle-socket set, maintained incrementally at
	// every busy-transition (place, complete, migrate) so idleSockets and
	// finished cost O(log n) and O(1) instead of scanning all sockets.
	// busyCount mirrors its complement.
	idleSet   []geometry.SocketID
	busyCount int
	// comp indexes the per-socket completion instants for O(1)
	// next-completion queries (see completionIndex).
	comp *completionIndex
	// tickGains caches the four first-order blend factors for the power
	// manager's fixed tick period, hoisting 1-exp(-dt/tau) out of the
	// per-socket loop (it depends only on dt).
	tickGains struct {
		dt                     units.Seconds
		sink, chip, hist, util float64
	}
	// checks is the optional invariant harness (nil = disabled).
	checks *check.Checks
	// tel is the optional observability layer (nil = disabled). laneIdx
	// maps each socket to its airflow channel (row-major, the order
	// airflow.New enumerates channels in) — shared by the telemetry lane
	// scan, the lane-epoch bookkeeping below and the engine's dirty and
	// settled flags — and inletC caches the inlet for the per-lane
	// ambient-rise extrema.
	tel      *telemetry.Local
	laneIdx  []int32
	inletC   float64
	telTicks uint64 // local tick count gating the lane scan and flush
	// laneEpoch[ch] backs StateVectors.Epoch: it increases whenever any
	// scheduler-visible state of channel ch's sockets may have changed — a
	// thermal sweep that was not a bit-exact identity on the channel, an
	// occupancy or running-job change, any fault application, a snapshot
	// restore. Schedulers replay cached per-socket predictions while the
	// epoch (and their value keys) hold, which is exact: an unchanged epoch
	// proves every input of the prediction is bit-unchanged.
	laneEpoch []uint64
	// eng is the resolved execution engine (see engine.go); checkAmb is the
	// dense ambient scratch for the harness's ambient-cache cross-audit,
	// allocated only when both checks and the incremental engine are on.
	eng      engineState
	checkAmb []units.Celsius
	// nextMigration is the next scheduled migration pass (0 when migration
	// is disabled). A Simulator field rather than a Run local so snapshots
	// capture it.
	nextMigration units.Seconds
	// ended latches once the loop has terminated (drained or hit the drain
	// limit), so a later runLoop call — Finish after a RunTo that covered
	// the whole run — is a no-op instead of executing one extra tick. The
	// classic Run checks termination at the bottom of the loop body; the
	// latch preserves that order exactly across the RunTo/Finish split.
	ended bool
	// Diagnostics.
	arrived    int
	unfinished int
	migrations int
}

// New builds a simulator, validating the configuration.
func New(cfg Config) (*Simulator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	af, err := airflow.New(cfg.Server, cfg.Airflow)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:     cfg,
		srv:     cfg.Server,
		af:      af,
		sockets: make([]socketState, cfg.Server.NumSockets()),
		amb:     make([]units.Celsius, cfg.Server.NumSockets()),
		chip:    make([]units.Celsius, cfg.Server.NumSockets()),
		hist:    make([]units.Celsius, cfg.Server.NumSockets()),
		util:    make([]float64, cfg.Server.NumSockets()),
		pewma:   make([]units.Watts, cfg.Server.NumSockets()),
		freq:    make([]units.MHz, cfg.Server.NumSockets()),
		powers:  make([]units.Watts, cfg.Server.NumSockets()),
		jobs:    make([]*job.Job, cfg.Server.NumSockets()),
		col:     metrics.NewCollector(),
		ambBuf:  make([]units.Celsius, cfg.Server.NumSockets()),
		idleSet: make([]geometry.SocketID, cfg.Server.NumSockets(), cfg.Server.NumSockets()),
		comp:    newCompletionIndex(cfg.Server.NumSockets()),
	}
	for i := range s.idleSet {
		s.idleSet[i] = geometry.SocketID(i)
	}
	if cfg.Source != nil {
		s.source = cfg.Source
	} else {
		s.source = workload.NewArrivals(cfg.Mix, s.srv.NumSockets(), cfg.Load, stats.NewRNG(cfg.Seed))
	}
	// Per-socket power constants. A cartridge SKU override replaces the
	// platform TDP (and with it the leakage curve and gated draw) and may
	// pin a frequency ceiling below the shared ladder.
	n := cfg.Server.NumSockets()
	s.hetero = cfg.Server.HasSKUs()
	s.leakAt = make([]chipmodel.Leakage, n)
	s.gatedPow = make([]units.Watts, n)
	s.rext = make([]float64, n)
	if s.hetero {
		s.fmaxAt = make([]units.MHz, n)
	}
	inlet := af.Inlet()
	for i := range s.sockets {
		id := geometry.SocketID(i)
		tdp := cfg.TDP
		if sku := s.srv.SKU(id); !sku.IsZero() {
			if sku.TDP > 0 {
				tdp = sku.TDP
			}
			if sku.FMax > 0 {
				s.fmaxAt[i] = sku.FMax
			}
		}
		s.leakAt[i] = chipmodel.NewLeakage(tdp)
		s.rext[i] = s.srv.Sink(id).RExt()
		s.gatedPow[i] = units.Watts(chipmodel.GatedPowerFrac * float64(tdp))
		s.sockets[i] = socketState{
			doneAt: neverDone,
			placement: metrics.JobPlacement{
				Zone:      s.srv.Zone(id),
				FrontHalf: s.srv.IsFrontHalf(id),
				EvenZone:  s.srv.IsEvenZone(id),
			},
		}
		s.amb[i] = inlet
		s.chip[i] = inlet
		s.hist[i] = inlet
		s.powers[i] = s.gatedPow[i]
	}
	if cfg.Migration.Period > 0 {
		s.nextMigration = cfg.Migration.Period
	}
	if cfg.Checks != nil {
		s.checks = cfg.Checks
		s.checks.Begin(cfg.Server.NumSockets(), cfg.Warmup, inlet,
			chipmodel.TempLimit, cfg.ChipTau, cfg.TickPeriod)
	}
	if cfg.Faults != nil {
		if err := s.initFaults(); err != nil {
			return nil, err
		}
	}
	s.laneIdx = make([]int32, cfg.Server.NumSockets())
	for _, sk := range cfg.Server.Sockets() {
		s.laneIdx[sk.ID] = int32(sk.Row*cfg.Server.Lanes + sk.Lane)
	}
	s.laneEpoch = make([]uint64, s.af.NumChannels())
	if cfg.Telemetry != nil {
		s.inletC = float64(inlet)
		// The run accumulates into a private Local (plain increments on the
		// hot paths) and flushes batches into the shared instance.
		s.tel = cfg.Telemetry.NewLocal(cfg.Server.Rows*cfg.Server.Lanes, inlet)
	}
	s.resolveEngine()
	if s.checks != nil && s.eng.incremental {
		s.checkAmb = make([]units.Celsius, cfg.Server.NumSockets())
	}
	s.caps = make([]units.MHz, n)
	for i := range s.caps {
		s.caps[i] = s.capFor(i, s.util[i])
	}
	s.vec = sched.StateVectors{Amb: s.amb, Pewma: s.pewma, RExt: s.rext, Hist: s.hist,
		Job: s.jobs, Leak: s.leakAt, Cap: s.caps, Epoch: s.laneEpoch}
	return s, nil
}

// sched.State implementation -------------------------------------------------

// Server implements sched.State.
func (s *Simulator) Server() *geometry.Server { return s.srv }

// Airflow implements sched.State.
func (s *Simulator) Airflow() *airflow.Model { return s.af }

// Busy implements sched.State. A dead socket (socket-death fault) reports
// busy: it cannot accept work, and every scheduler already knows how to step
// around busy sockets — no policy needs a third state.
func (s *Simulator) Busy(id geometry.SocketID) bool {
	return s.jobs[id] != nil || (s.flt != nil && s.flt.dead[id])
}

// Vectors implements sched.State: the StateVectors built once in New over
// the SoA slices themselves, no copying.
func (s *Simulator) Vectors() *sched.StateVectors { return &s.vec }

// capFor returns socket i's frequency cap at utilization util: the boost
// budget tier, clamped by the socket's SKU ceiling, and forced to the ladder
// floor while an emergency-throttle fault pins the socket.
func (s *Simulator) capFor(i int, util float64) units.MHz {
	if s.flt != nil && s.flt.capped[i] {
		return chipmodel.FMin
	}
	c := s.boostCap(util)
	if s.fmaxAt != nil {
		if m := s.fmaxAt[i]; m > 0 && m < c {
			c = m
		}
	}
	return c
}

func (s *Simulator) boostCap(util float64) units.MHz {
	switch {
	case s.cfg.DisableBoost:
		return chipmodel.MaxSustained
	case util <= boostTier1Util:
		return chipmodel.FMax
	case util <= boostTier2Util:
		return 1700
	default:
		return chipmodel.MaxSustained
	}
}

var _ sched.State = (*Simulator)(nil)

// bumpAllLanes advances every channel's epoch — the conservative bump for
// events whose blast radius is not channel-local (a serial full sweep, a
// fault application, a snapshot restore).
func (s *Simulator) bumpAllLanes() {
	for i := range s.laneEpoch {
		s.laneEpoch[i]++
	}
}

// setPower writes socket i's current draw into the powers vector, marking
// the owning airflow channel dirty when the value actually changed. The dirty-lane engine's exactness rests on every
// event-path and tick-path power write flowing through this funnel (the
// serial engine ignores the dirty bits entirely).
func (s *Simulator) setPower(i int, w units.Watts) {
	if s.powers[i] == w {
		return
	}
	s.powers[i] = w
	if d := s.eng.dirty; d != nil {
		d[s.laneIdx[i]] = true
	}
	s.unsettle(i)
}

// idleRank returns the position of id in the sorted idle set (or where it
// would be inserted): a lower-bound binary search.
func (s *Simulator) idleRank(id geometry.SocketID) int {
	lo, hi := 0, len(s.idleSet)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.idleSet[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// markBusy removes socket i from the sorted idle set (idle -> busy
// transition). O(log n) search plus the shift; allocation-free.
func (s *Simulator) markBusy(i int) {
	s.busyCount++
	s.unsettle(i)
	s.laneEpoch[s.laneIdx[i]]++
	k := s.idleRank(geometry.SocketID(i))
	copy(s.idleSet[k:], s.idleSet[k+1:])
	s.idleSet = s.idleSet[:len(s.idleSet)-1]
}

// markIdle inserts socket i into the sorted idle set (busy -> idle
// transition). The set's capacity is the socket count, so the append never
// reallocates.
func (s *Simulator) markIdle(i int) {
	s.busyCount--
	s.unsettle(i)
	s.laneEpoch[s.laneIdx[i]]++
	id := geometry.SocketID(i)
	k := s.idleRank(id)
	s.idleSet = s.idleSet[:len(s.idleSet)+1]
	copy(s.idleSet[k+1:], s.idleSet[k:])
	s.idleSet[k] = id
}

// Run executes the simulation to completion and returns the metrics.
func (s *Simulator) Run() metrics.Result {
	s.runLoop(neverDone)
	return s.finalize()
}

// RunTo advances the simulation tick by tick until the clock reaches t (the
// first tick boundary at or past it), the run finishes, or the drain limit
// is hit. Unlike Run it never takes the gap advance's dead-tail licence,
// which leaves the thermal field where the last sweep put it, so the state at
// return is exactly the tick-by-tick state — the boundary Snapshot captures. Continue with further RunTo calls or complete with Finish; the
// split is bit-exact: RunTo(t) followed by Finish produces the same result,
// metrics, and telemetry event stream as a single Run.
func (s *Simulator) RunTo(t units.Seconds) {
	s.runLoop(t)
}

// Finish completes a run previously advanced with RunTo (or restored from a
// snapshot) and returns the metrics.
func (s *Simulator) Finish() metrics.Result {
	s.runLoop(neverDone)
	return s.finalize()
}

// runLoop is the simulation loop, bounded by an exclusive time limit (pass
// neverDone to run to completion).
func (s *Simulator) runLoop(until units.Seconds) {
	if s.ended {
		return
	}
	tick := s.cfg.TickPeriod
	hardStop := s.cfg.DrainLimit
	for s.now < until {
		if s.flt != nil {
			s.applyFaults()
		}
		// Unified event queue: while every lane holds its fixed point, or the
		// run is in a dead tail nothing observes, march straight through the
		// gap to the next indexed event (a no-op unless the event engine
		// armed tick skipping). On any advance, re-enter the loop top so
		// fault application sees the new clock.
		advanced, done := s.eventGapAdvance(until, tick, hardStop)
		if done {
			s.ended = true
			break
		}
		if advanced {
			continue
		}
		tickStart := s.now
		tickEnd := s.now + tick
		s.processEventsUntil(tickEnd)
		s.advanceAllTo(tickEnd)
		s.now = tickEnd
		if s.flt != nil {
			s.accrueFanEnergy(tickStart, tickEnd)
		}
		s.powerManagerTick(tick)
		if s.cfg.Migration.Period > 0 && s.now >= s.nextMigration {
			s.runMigrations()
			s.nextMigration += s.cfg.Migration.Period
		}
		if s.cfg.Probe != nil {
			s.cfg.Probe(s, s.now)
		}
		if s.finished() || s.now >= hardStop {
			s.ended = true
			break
		}
	}
}

// finalize digests the run: metrics span and result, harness end-of-run
// checks, telemetry tail flush.
func (s *Simulator) finalize() metrics.Result {
	runningLeft := s.busyCount
	queuedLeft := s.queue.Len()
	s.unfinished = runningLeft + queuedLeft
	s.col.SetSpan(s.cfg.Warmup, s.now)
	res := s.col.Finalize()
	if s.checks != nil {
		s.checks.End(s.arrived, runningLeft, queuedLeft, s.migrations, res)
	}
	if s.tel != nil {
		s.tel.Flush() // publish the tail of the batch
	}
	return res
}

// finished reports whether arrivals are exhausted and all work is done —
// O(1) through the incrementally maintained busy counter.
func (s *Simulator) finished() bool {
	return s.now >= s.cfg.Duration && s.queue.Len() == 0 && s.busyCount == 0
}

// processEventsUntil handles all arrivals and completions in [s.now, end).
func (s *Simulator) processEventsUntil(end units.Seconds) {
	for {
		arrT := s.nextArrivalTime()
		compT, compID := s.nextCompletion()
		t := arrT
		isComp := false
		if compT < t {
			t, isComp = compT, true
		}
		if t >= end {
			return
		}
		if isComp {
			s.advanceSocketTo(int(compID), t)
			s.completeJob(compID, t)
		} else {
			at, b, dur := s.source.Next()
			j := s.jobPool.Get(s.nextID, b, at, dur)
			s.nextID++
			s.arrived++
			if s.tel != nil {
				s.tel.OnArrival()
			}
			s.queue.Push(j)
		}
		s.drainQueue(t)
	}
}

// nextArrivalTime returns the next admissible arrival instant, +inf once the
// horizon has passed.
func (s *Simulator) nextArrivalTime() units.Seconds {
	t := s.source.Peek()
	if t >= s.cfg.Duration {
		return units.Seconds(math.Inf(1))
	}
	return t
}

// nextCompletion returns the earliest cached completion instant — an O(1)
// heap-top read; the instants are maintained incrementally by setDoneAt at
// every state change. The heap's (instant, socket ID) ordering makes the
// answer identical to a strict-< linear scan over the sockets (lowest ID
// wins ties), which nextCompletionScan preserves as a test reference.
func (s *Simulator) nextCompletion() (units.Seconds, geometry.SocketID) {
	return s.comp.min()
}

// nextCompletionScan is the pre-heap reference implementation, kept for the
// differential test that pins the heap to the scan's tie-breaking.
func (s *Simulator) nextCompletionScan() (units.Seconds, geometry.SocketID) {
	best := neverDone
	var id geometry.SocketID
	for i := range s.sockets {
		if d := s.sockets[i].doneAt; d < best {
			best, id = d, geometry.SocketID(i)
		}
	}
	return best, id
}

// completeJob finishes the job on socket id at time t.
func (s *Simulator) completeJob(id geometry.SocketID, t units.Seconds) {
	st := &s.sockets[id]
	j := s.jobs[id]
	j.Done = t
	residual := j.Work
	j.Work = 0
	// Strict >, matching advanceSocketTo's segment accrual: a completion
	// exactly at the warmup instant carries zero post-warmup busy/energy
	// measure, so counting it would record a job with no matching segments.
	if t > s.cfg.Warmup {
		s.col.OnJobComplete(j.NominalDuration, j.Done-j.Arrival, j.Done-j.Started, st.placement)
	}
	if s.checks != nil {
		s.checks.OnComplete(int64(j.ID), residual, t)
	}
	if s.tel != nil {
		s.tel.OnComplete(t, int(id), j.Done-j.Arrival, j.Done-j.Started)
	}
	s.jobs[id] = nil
	s.freq[id] = 0
	s.markIdle(int(id))
	s.eng.invalidatePick(int(id))
	s.setDoneAt(int(id), neverDone)
	s.setPower(int(id), s.idlePow(int(id)))
	// j is unreachable now — every hook above copied what it needed and the
	// pick caches were invalidated — so its allocation feeds the next arrival.
	s.jobPool.Put(j)
}

// idlePow returns socket i's idle draw: the SKU-scaled power-gated power, or
// zero once a socket-death fault has cut it from the rails.
func (s *Simulator) idlePow(i int) units.Watts {
	if s.flt != nil && s.flt.dead[i] {
		return 0
	}
	return s.gatedPow[i]
}

// drainQueue places queued jobs on idle sockets until one side is exhausted.
func (s *Simulator) drainQueue(t units.Seconds) {
	for s.queue.Len() > 0 {
		idle := s.idleSockets()
		if len(idle) == 0 {
			return
		}
		j := s.queue.Pop()
		var pick geometry.SocketID
		if s.tel != nil {
			// Wall-clocking every pick costs two time.Now calls per
			// placement; the latency histogram is sampled instead.
			lat := time.Duration(-1)
			if s.tel.TimeThisPick() {
				start := time.Now()
				pick = s.cfg.Scheduler.Pick(s, j, idle)
				lat = time.Since(start)
			} else {
				pick = s.cfg.Scheduler.Pick(s, j, idle)
			}
			s.tel.OnPick(lat, s.srv.Zone(pick))
		} else {
			pick = s.cfg.Scheduler.Pick(s, j, idle)
		}
		s.placeJob(pick, j, t)
	}
}

// idleSockets returns the sorted idle set, maintained incrementally at the
// busy-transition sites — no scan. The returned slice aliases the live set:
// valid until the next placement, completion, or migration.
func (s *Simulator) idleSockets() []geometry.SocketID {
	return s.idleSet
}

// placeJob starts j on socket id at time t.
func (s *Simulator) placeJob(id geometry.SocketID, j *job.Job, t units.Seconds) {
	if s.jobs[id] != nil {
		panic(fmt.Sprintf("sim: scheduler %s picked busy socket %d", s.cfg.Scheduler.Name(), id))
	}
	s.advanceSocketTo(int(id), t)
	s.jobs[id] = j
	j.Started = t
	s.markBusy(int(id))
	s.freq[id] = s.pickFrequency(id)
	s.refreshDoneAt(int(id))
	s.setPower(int(id), s.busyPower(int(id)))
	if s.checks != nil {
		s.checks.OnPlace(int64(j.ID), j.NominalDuration, t)
	}
	if s.tel != nil {
		s.tel.OnPlace(t, int(id), s.srv.Zone(id), t-j.Arrival)
	}
}

// busyPower returns dynamic power at the socket's frequency plus the
// socket's leakage at its current chip temperature.
func (s *Simulator) busyPower(i int) units.Watts {
	return s.jobs[i].Benchmark.DynamicPowerAt(s.freq[i]) + s.leakAt[i].At(s.chip[i])
}

// advanceSocketTo accrues work, busy-frequency time, and energy on one
// socket up to time t.
func (s *Simulator) advanceSocketTo(i int, t units.Seconds) {
	st := &s.sockets[i]
	dt := t - st.lastUpdate
	if dt <= 0 {
		return
	}
	if j := s.jobs[i]; j != nil {
		f := s.freq[i]
		rate := j.Benchmark.RelPerf(f)
		consumed := units.Seconds(float64(dt) * rate)
		j.Work -= consumed
		var clipped units.Seconds
		if j.Work < 0 {
			clipped = -j.Work
			j.Work = 0
		}
		s.setDoneAt(i, t+units.Seconds(float64(j.Work)/rate))
		if t > s.cfg.Warmup {
			seg := dt
			if st.lastUpdate < s.cfg.Warmup {
				seg = t - s.cfg.Warmup
			}
			rel := float64(f) / float64(chipmodel.FMax)
			s.col.OnBusySegment(seg, rel, chipmodel.IsBoost(f), st.placement)
		}
		if s.checks != nil {
			s.checks.OnWorkSegment(int64(j.ID), consumed, clipped, t)
		}
	}
	if t > s.cfg.Warmup {
		seg := dt
		if st.lastUpdate < s.cfg.Warmup {
			seg = t - s.cfg.Warmup
		}
		s.col.OnEnergy(units.Joules(float64(s.powers[i]) * float64(seg)))
	}
	if s.checks != nil {
		s.checks.OnEnergySegment(i, st.lastUpdate, t, s.powers[i])
	}
	st.lastUpdate = t
}

// advanceAllTo brings every socket to time t.
func (s *Simulator) advanceAllTo(t units.Seconds) {
	for i := range s.sockets {
		s.advanceSocketTo(i, t)
	}
}

// powerManagerTick updates the thermal chain and re-picks P-states; dt is
// the elapsed tick period. It dispatches to the configured engine: the
// incremental (dirty-lane) sweep in engine.go, or
// the serial reference sweep below — bit-identical by construction.
func (s *Simulator) powerManagerTick(dt units.Seconds) {
	if s.eng.incremental {
		s.powerManagerTickIncremental(dt)
		return
	}
	// The serial reference sweep may move every lane's thermal state; the
	// incremental sweep bumps per channel, skipping bit-exact identities.
	s.bumpAllLanes()
	s.powerManagerTickSerial(dt)
}

// powerManagerTickSerial is the pristine reference sweep: dense ambient
// recompute, ascending-ID socket loop, effects applied in place.
func (s *Simulator) powerManagerTickSerial(dt units.Seconds) {
	// 1) Ambient air follows current powers instantly through the airflow
	// network.
	ambients := s.ambBuf
	s.af.AmbientInto(s.powers, ambients)

	// The four first-order gains depend only on dt, which is the fixed tick
	// period: compute them once per tick (in practice once per run), not
	// once per state per socket.
	s.ensureTickGains(dt)
	kSink, kChip := s.tickGains.sink, s.tickGains.chip
	kHist, kUtil := s.tickGains.hist, s.tickGains.util

	for i := range s.sockets {
		id := geometry.SocketID(i)
		sink := s.srv.Sink(id)
		busy := s.jobs[i] != nil

		// 2) The socket ambient moves toward the airflow steady state on
		// the 30 s socket time constant (the heatsink masses buffer the
		// local air temperature).
		s.amb[i] = chipmodel.StepWithGain(s.amb[i], ambients[i], kSink)

		// 3) The chip moves toward the Equation-1 peak for the current
		// ambient on the 5 ms chip time constant.
		chipTarget := chipmodel.PeakTemp(s.amb[i], s.powers[i], sink)
		s.chip[i] = chipmodel.StepWithGain(s.chip[i], chipTarget, kChip)

		// 4) The socket power average (the 30 s heatsink-mass state behind
		// the socket temperature), the history EWMA for A-Random, and the
		// boost-budget utilization EWMA.
		s.pewma[i] = units.Watts(chipmodel.StepWithGain(units.Celsius(s.pewma[i]), units.Celsius(s.powers[i]), kSink))
		s.hist[i] = chipmodel.StepWithGain(s.hist[i], s.vec.SocketTemp(id), kHist)
		target := units.Celsius(0)
		if busy {
			target = 1
		}
		s.util[i] = float64(chipmodel.StepWithGain(units.Celsius(s.util[i]), target, kUtil))
		s.caps[i] = s.capFor(i, s.util[i])

		// 5) DVFS re-pick for busy sockets; refresh power either way. The
		// cached completion instant only moves when the P-state does.
		if busy {
			if f := s.pickFrequencyIndexed(id); f != s.freq[i] {
				if s.tel != nil {
					s.tel.OnThrottle(s.now, i, s.freq[i], f)
				}
				s.freq[i] = f
				s.refreshDoneAt(i)
			}
			s.powers[i] = s.busyPower(i)
		} else {
			s.powers[i] = s.idlePow(i)
		}
	}
	if s.checks != nil {
		s.auditTick()
	}
	if s.tel != nil {
		s.tel.OnTick()
		// The thermal field moves on 100ms+ scales; folding every socket's
		// ambient into the lane extrema every 8th tick loses nothing
		// measurable and keeps the full scan off most ticks. The same
		// cadence publishes the run's batch to the shared instance, so a
		// live /metrics endpoint lags the simulation by at most 8 ticks.
		s.telTicks++
		if s.telTicks&7 == 0 {
			for i := range s.sockets {
				s.tel.ObserveLaneRise(int(s.laneIdx[i]), float64(s.amb[i])-s.inletC)
			}
			s.tel.Flush()
		}
	}
}

// auditTick feeds the invariant harness after a power-manager tick: per-
// socket thermal sanity and accounting coverage every tick, and the
// completion-cache/heap audit on the harness's audit period. Runs only when
// checks are installed; the hot tick loop above stays untouched.
func (s *Simulator) auditTick() {
	for i := range s.sockets {
		sink := s.srv.Sink(geometry.SocketID(i))
		// Headroom: the socket's current operating point settles at or
		// below the limit. The converged fixed point (not the governor's
		// two-step truncation) is what the chip integrator actually
		// approaches, so the harness's settled-chip bound is tight.
		headroom := s.settledChipTemp(i, sink) <= chipmodel.TempLimit
		s.checks.OnSocketTick(i, s.jobs[i] != nil, s.amb[i], s.chip[i], headroom, s.now)
		// The caps cache must equal a fresh capFor: a desync means some
		// input (util, throttle flag) changed without refreshing it.
		if want := s.capFor(i, s.util[i]); s.caps[i] != want {
			panic(fmt.Sprintf("sim: caps[%d]=%v desynced from capFor=%v (a util or throttle write bypassed the mirror refresh)", i, s.caps[i], want))
		}
	}
	if s.checks.OnTick(s.now) {
		for i := range s.sockets {
			s.checks.AuditDoneAt(i, s.sockets[i].doneAt, s.recomputeDoneAt(i), s.now)
		}
		heapT, heapID := s.comp.min()
		scanT, scanID := s.nextCompletionScan()
		s.checks.AuditNextCompletion(heapT, int(heapID), scanT, int(scanID), s.now)
		s.auditEngineCaches()
	}
}

// auditEngineCaches cross-audits the incremental engine's sparse state
// against dense recomputes: the dirty-lane ambient cache (clean channels
// only — a dirty channel's cache is by definition awaiting recompute) and
// the incrementally maintained idle set. No-op on the serial engine.
func (s *Simulator) auditEngineCaches() {
	if s.checkAmb != nil {
		s.af.AmbientInto(s.powers, s.checkAmb)
		for ch, dirty := range s.eng.dirty {
			if dirty {
				continue
			}
			for _, id := range s.af.Channel(ch) {
				s.checks.AuditAmbientCache(int(id), s.ambBuf[id], s.checkAmb[id], s.now)
			}
		}
	}
	scanned := 0
	dead := 0
	firstDiff := -1
	for i := range s.sockets {
		if s.flt != nil && s.flt.dead[i] {
			// Dead sockets are neither busy nor schedulable: they are out of
			// the idle set and out of the busy count.
			dead++
			continue
		}
		if s.jobs[i] == nil {
			if firstDiff < 0 && (scanned >= len(s.idleSet) || s.idleSet[scanned] != geometry.SocketID(i)) {
				firstDiff = scanned
			}
			scanned++
		}
	}
	s.checks.AuditIdleSet(len(s.idleSet), scanned, s.busyCount, len(s.sockets)-scanned-dead, firstDiff, s.now)
}

// settledChipTemp returns the chip temperature the socket's current
// operating point converges to: the fixed point of the per-tick target
// PeakTemp(ambient, dyn + leakage(T), sink) that the chip integrator chases.
// The leakage loop gain R*alpha*L stays below one (leakage is capped), so
// the iteration contracts; starting from the current chip temperature it
// converges in a handful of steps. Idle sockets draw the fixed gated power
// with no leakage feedback, so their target is already the fixed point.
func (s *Simulator) settledChipTemp(i int, sink chipmodel.Sink) units.Celsius {
	j := s.jobs[i]
	if j == nil {
		return chipmodel.PeakTemp(s.amb[i], s.idlePow(i), sink)
	}
	leak := s.leakAt[i]
	dyn := j.Benchmark.DynamicPowerAt(s.freq[i])
	t := s.chip[i]
	for k := 0; k < 64; k++ {
		nt := chipmodel.PeakTemp(s.amb[i], dyn+leak.At(t), sink)
		if math.Abs(float64(nt-t)) < 1e-9 {
			return nt
		}
		t = nt
	}
	return t
}

// pickFrequencyIndexed is the power-management policy of Table III and the
// serial engine's reference pick: the highest P-state (boost included,
// subject to the boost-budget cap) whose *predicted steady* Equation-1 peak
// temperature at the socket's current ambient stays under the 95C limit.
// Using the steady prediction rather than the transient chip temperature
// keeps the policy conservative — a millisecond job cannot outrun the
// thermal model — and makes the power manager agree exactly with the
// schedulers' frequency predictor.
func (s *Simulator) pickFrequencyIndexed(id geometry.SocketID) units.MHz {
	ambient, b := s.amb[id], &s.jobs[id].Benchmark
	sink, leak := s.srv.Sink(id), s.leakAt[id]
	i := chipmodel.HighestAdmissible(chipmodel.CapIndex(s.capFor(int(id), s.util[id])), func(i int) bool {
		dyn := b.DynamicPowerAt(chipmodel.Frequencies[i])
		return chipmodel.PredictTwoStep(ambient, dyn, sink, leak) <= chipmodel.TempLimit
	})
	if i < 0 {
		return chipmodel.FMin
	}
	return chipmodel.Frequencies[i]
}

// Arrived returns the number of jobs admitted.
func (s *Simulator) Arrived() int { return s.arrived }

// Unfinished returns the number of jobs still in flight when the run ended
// (nonzero only if the drain limit was hit).
func (s *Simulator) Unfinished() int { return s.unfinished }

// Migrations returns how many job migrations the run performed.
func (s *Simulator) Migrations() int { return s.migrations }

// Now returns the current simulation time.
func (s *Simulator) Now() units.Seconds { return s.now }
