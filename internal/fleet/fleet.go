// Package fleet scales the simulator out one level: racks x chassis of
// independent deterministic sim instances behind a fleet-level dispatcher
// that splits a single shared arrival stream across chassis before any
// intra-chassis scheduler runs. It is the paper's density question re-posed
// at datacenter scale — does thermal awareness pay when routing jobs *to* a
// chassis, before the in-chassis scheduler ever sees them?
//
// Determinism is the package's contract, built from three mechanisms:
//
//  1. The fleet arrival stream is drawn serially from the same Poisson
//     process a single simulator over the combined socket count would
//     consume — so a fleet of one chassis replays the exact arrival sequence
//     of a plain sim.Run and produces its bit-identical Result.
//  2. Generation and dispatch are one serial pass (feed.route): each arrival
//     is routed by a deterministic policy the moment it is drawn and
//     appended, as a compact record, to its chassis's replay window before
//     any simulation consumes that window.
//  3. Chassis simulate in a bounded worker pool writing into a
//     position-indexed results slice, and the fleet aggregate is an ordered
//     reduction over that slice (metrics.Aggregate) — the worker count can
//     change wall-clock time only, never a byte of the result.
//
// Fleets run in one of two loop modes. Open loop (the default, and the only
// mode before the epoch executor existed) dispatches the entire stream before
// any chassis simulates, over estimated chassis state. Closed loop (a
// fleet.epoch block, epoch.go) interleaves dispatch and simulation in
// tick-aligned epochs: each boundary, the dispatcher observes every chassis's
// true state through sim.Observe and routes the next window over what it saw.
// Determinism survives the feedback because each epoch repeats the same
// serial-dispatch / parallel-step / serial-observe shape — the worker pool
// still only parallelizes simulation between two serial fences.
//
// The fleet equivalence suite (fleet_test.go, epoch_test.go) holds the
// package to exactly that standard, the way TestEngineEquivalenceMatrix holds
// the engines.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"densim/internal/check"
	"densim/internal/metrics"
	"densim/internal/scenario"
	"densim/internal/sim"
	"densim/internal/stats"
	"densim/internal/telemetry"
	"densim/internal/units"
	"densim/internal/workload"
)

// Chassis is one resolved fleet member: an independent simulated server with
// its own scenario (topology, SKUs, faults, scheduler), sharing only the
// fleet arrival stream and run windows.
type Chassis struct {
	// Rack and Slot locate the chassis in the fleet grid.
	Rack, Slot int
	// Scenario is the chassis's resolved run specification: the fleet
	// entry's ref (or the template) with the template's workload and windows
	// applied and any inlet override folded in.
	Scenario *scenario.Scenario
	// Sockets is the chassis's socket count (its share weight in the
	// dispatcher's utilization estimates).
	Sockets int
	// Inlet is the chassis's effective inlet temperature — the thermal
	// dispatcher's headroom input.
	Inlet units.Celsius
}

// Name returns the chassis's fleet-grid label ("r0c1").
func (c *Chassis) Name() string { return fmt.Sprintf("r%dc%d", c.Rack, c.Slot) }

// Fleet is a resolved, runnable fleet. Build with New; the optional fields
// may be set before Run.
type Fleet struct {
	// WarmDir enables the per-chassis warm-start cache: each chassis's
	// warmup state is cached keyed by its snapshot signature (which includes
	// its replay-stream identity), exactly like experiments.SimOptions'
	// WarmDir. Results are bit-identical either way. Checked or
	// telemetry-instrumented chassis always run cold, and closed-loop runs
	// ignore WarmDir entirely — a chassis's stream is only discovered epoch
	// by epoch, so there is no replay identity to key a cache on.
	WarmDir string
	// Telemetry instruments every chassis, each labeled with its grid name
	// ("r0c1"), including the per-chassis dispatched counter. Nil disables.
	Telemetry *telemetry.Set
	// Checked runs every chassis under the runtime invariant harness even
	// when its scenario does not ask for it.
	Checked bool

	template   *scenario.Scenario
	chassis    []Chassis
	dispatcher string
	workers    int
	seed       uint64
	epoch      units.Seconds // closed-loop epoch period; 0 = open loop
	tick       units.Seconds // resolved tick period (epoch boundary quantum)
}

// New resolves a scenario's fleet block into a runnable Fleet. The scenario
// is the template: chassis entries without a ref simulate it, and its
// workload, load, seeds, and windows define the shared arrival stream for
// every chassis (a fleet shares one job population by construction; chassis
// refs contribute hardware — topology, airflow, chip, SKUs, faults — and
// their own schedulers). Chassis are canonically ordered by (rack, slot), so
// declaration order never affects routing.
func New(sc *scenario.Scenario, seed uint64) (*Fleet, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Fleet == nil {
		return nil, fmt.Errorf("fleet: scenario %q has no fleet block", sc.Name)
	}
	template := *sc
	template.Fleet = nil
	f := &Fleet{
		template:   &template,
		dispatcher: sc.Fleet.Dispatcher,
		workers:    sc.Fleet.Workers,
		seed:       seed,
	}
	for i := range sc.Fleet.Chassis {
		entry := &sc.Fleet.Chassis[i]
		for k := 0; k < entryCount(entry); k++ {
			ch, err := f.resolveChassis(entry, entry.Chassis+k)
			if err != nil {
				return nil, fmt.Errorf("fleet: entry %d (rack %d chassis %d): %w", i, entry.Rack, entry.Chassis+k, err)
			}
			f.chassis = append(f.chassis, ch)
		}
	}
	sort.Slice(f.chassis, func(a, b int) bool {
		if f.chassis[a].Rack != f.chassis[b].Rack {
			return f.chassis[a].Rack < f.chassis[b].Rack
		}
		return f.chassis[a].Slot < f.chassis[b].Slot
	})
	// The dispatcher name was validated declaratively; building it here
	// surfaces any drift between the two layers at New time (both loop
	// variants, so a policy missing its closed-loop form fails at New).
	if _, err := newDispatcher(f.dispatcher, f.chassis); err != nil {
		return nil, err
	}
	if _, err := newClosedDispatcher(f.dispatcher, f.chassis); err != nil {
		return nil, err
	}
	if sc.Fleet.Epoch != nil && sc.Fleet.Epoch.PeriodS > 0 {
		f.epoch = units.Seconds(sc.Fleet.Epoch.PeriodS)
		// Layer-2 alignment check, against the *resolved* tick period this
		// time (the declarative layer could only see the scenario's own
		// numbers; here withDefaults-equivalent resolution has happened).
		cfg, err := f.template.Config(seed)
		if err != nil {
			return nil, err
		}
		tick := float64(cfg.TickPeriod)
		if tick <= 0 {
			tick = scenario.DefaultTickPeriodS
		}
		if !scenario.EpochAligned(float64(f.epoch), tick) {
			return nil, fmt.Errorf("fleet: epoch period %gs is not a multiple of the tick period %gs", float64(f.epoch), tick)
		}
		f.tick = units.Seconds(tick)
	}
	return f, nil
}

// entryCount mirrors the scenario layer's default of 1.
func entryCount(c *scenario.FleetChassis) int {
	if c.Count == 0 {
		return 1
	}
	return c.Count
}

// resolveChassis materializes one fleet slot from its declarative entry.
func (f *Fleet) resolveChassis(entry *scenario.FleetChassis, slot int) (Chassis, error) {
	var sc *scenario.Scenario
	if entry.Scenario == "" {
		cp := *f.template
		sc = &cp
	} else {
		loaded, err := scenario.Load(entry.Scenario)
		if err != nil {
			return Chassis{}, err
		}
		if loaded.Fleet != nil {
			return Chassis{}, fmt.Errorf("chassis scenario %q carries its own fleet block (fleets do not nest)", loaded.Name)
		}
		if loaded.Snapshot.Save != "" || loaded.Snapshot.Load != "" {
			return Chassis{}, fmt.Errorf("chassis scenario %q carries a snapshot block (use the fleet warm-start cache instead)", loaded.Name)
		}
		sc = loaded
	}
	// The fleet shares one job population and one set of windows: the
	// template's workload and run blocks override the chassis ref's. A
	// chassis-level trace would fork the population, so it is overridden
	// away with the rest of the workload block.
	sc.Workload = f.template.Workload
	sc.Run = f.template.Run
	if entry.InletC != 0 {
		sc.Airflow.InletC = entry.InletC
	}
	if err := sc.Validate(); err != nil {
		return Chassis{}, err
	}
	srv, err := sc.Server()
	if err != nil {
		return Chassis{}, err
	}
	// Probe the full config once so Run-time assembly cannot fail.
	if _, err := sc.Config(f.seed); err != nil {
		return Chassis{}, err
	}
	return Chassis{
		Rack:     entry.Rack,
		Slot:     slot,
		Scenario: sc,
		Sockets:  srv.NumSockets(),
		Inlet:    sc.AirflowParams().Inlet,
	}, nil
}

// Chassis returns the canonically ordered fleet members. Callers must not
// mutate the slice.
func (f *Fleet) Chassis() []Chassis { return f.chassis }

// Dispatcher returns the resolved dispatcher policy name.
func (f *Fleet) Dispatcher() string {
	if f.dispatcher == "" {
		return "round-robin"
	}
	return f.dispatcher
}

// SetWorkers overrides the fleet block's worker bound (0 restores the
// default: the block's value, else GOMAXPROCS).
func (f *Fleet) SetWorkers(n int) { f.workers = n }

// Epoch returns the closed-loop epoch period, or 0 for an open-loop fleet.
func (f *Fleet) Epoch() units.Seconds { return f.epoch }

// sockets returns the fleet's combined socket count.
func (f *Fleet) sockets() int {
	total := 0
	for i := range f.chassis {
		total += f.chassis[i].Sockets
	}
	return total
}

// workerCount resolves the effective pool size.
func (f *Fleet) workerCount() int {
	w := f.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(f.chassis) {
		w = len(f.chassis)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Ledger aggregates the fault machinery's side effects. Per chassis it
// mirrors core.FaultStats; fleet-wide the energies and counts sum and
// FlowFactor reports the worst (minimum) chassis — the fleet is as starved
// as its most starved member.
type Ledger struct {
	// FanEnergyJ is the chassis fan bank's electrical energy.
	FanEnergyJ float64
	// Requeues counts jobs displaced by socket-death events.
	Requeues int
	// DeadSockets counts sockets lost by the end of the run.
	DeadSockets int
	// FlowFactor is the delivered/required airflow ratio at end of run.
	FlowFactor float64
	// Faulted counts chassis carrying fault timelines (fleet-wide ledger
	// only; 1 on a per-chassis ledger).
	Faulted int
}

// ChassisResult is one chassis's share of a fleet run.
type ChassisResult struct {
	// Rack and Slot locate the chassis; Scenario names its spec.
	Rack, Slot int
	Scenario   string
	Sockets    int
	// Inlet is the effective inlet temperature.
	Inlet units.Celsius
	// Dispatched counts the fleet arrivals routed here; Arrived counts the
	// jobs the chassis simulator admitted (the closure audit requires them
	// equal); Unfinished counts jobs still in flight when the drain limit
	// hit.
	Dispatched, Arrived, Unfinished int
	// Result is the chassis's own metrics.
	Result metrics.Result
	// Ledger is the chassis's fault ledger, nil when it has no timeline.
	Ledger *Ledger
	// EstErr is the accumulated |estimated − observed| in-flight divergence
	// of the shadow open-loop estimator at each epoch boundary — how far the
	// PR-8 pipeline's picture of this chassis drifted from what a closed-loop
	// observer actually saw. Always 0 on open-loop runs (nothing observes).
	EstErr int
}

// Name returns the chassis's fleet-grid label ("r0c1").
func (r *ChassisResult) Name() string { return fmt.Sprintf("r%dc%d", r.Rack, r.Slot) }

// Result is the outcome of one fleet run.
type Result struct {
	// Aggregate is the fleet-wide merged result (metrics.Aggregate over the
	// chassis results in canonical order).
	Aggregate metrics.Result
	// Chassis holds the per-chassis results in canonical (rack, slot)
	// order.
	Chassis []ChassisResult
	// Picks is the dispatcher's routing sequence: Picks[k] is the chassis
	// index (into Chassis) that fleet arrival k was routed to.
	Picks []int
	// Dispatcher and Workers record what actually ran.
	Dispatcher string
	Workers    int
	// Ledger is the fleet-wide fault ledger (zero when no chassis carries a
	// timeline).
	Ledger Ledger
	// Epochs counts the closed-loop epochs stepped (0 on open-loop runs) and
	// EpochS records the epoch period that ran.
	Epochs int
	EpochS units.Seconds
	// EpochStarts indexes the pick sequence by epoch: EpochStarts[k] is the
	// offset in Picks where epoch k's dispatch window begins, so
	// Picks[EpochStarts[k]:EpochStarts[k+1]] is exactly what the dispatcher
	// routed between boundaries k and k+1. Nil on open-loop runs.
	EpochStarts []int
}

// feed is the fleet arrival process: the same mix, combined socket count,
// load, and seed a single simulator over the whole fleet would consume
// lazily, drawn on demand up to the template's horizon. For a fleet of one
// chassis it yields bit-for-bit the sequence plain sim.Run would generate.
type feed struct {
	src     *workload.Arrivals
	benches []workload.Benchmark // the table arrival.bench indexes
	horizon units.Seconds
	mean    float64 // expected arrival count over the horizon
}

func (f *Fleet) newFeed() (*feed, error) {
	cfg, err := f.template.Config(f.seed)
	if err != nil {
		return nil, err
	}
	total := f.sockets()
	return &feed{
		src:     workload.NewArrivals(cfg.Mix, total, cfg.Load, stats.NewRNG(f.seed)),
		benches: cfg.Mix.Benchmarks(),
		horizon: cfg.Duration,
		mean:    cfg.Mix.ArrivalRate(total, cfg.Load) * float64(cfg.Duration),
	}, nil
}

// route is the fleet's one generate-and-route pass, shared by both loop
// modes: it draws arrivals while they fall before until (clipped to the
// horizon), asks d for each one's chassis, hands the compact record to emit,
// and appends the chassis index to picks — the dispatcher analog of a job
// trace, and what the pick-sequence determinism oracle replays. Open loop
// routes one window up to the horizon, closed loop one window per epoch.
func (fd *feed) route(d dispatcher, until units.Seconds, picks []int, emit func(i int, a arrival)) []int {
	until = min(until, fd.horizon)
	for fd.src.Peek() < until {
		at, b, nominal := fd.src.NextIndex()
		i := d.pick(at, nominal)
		emit(i, arrival{at: at, nominal: nominal, bench: int32(b)})
		picks = append(picks, i)
	}
	return picks
}

// poissonCap sizes a slice for a Poisson count of the given mean: four
// standard deviations of headroom, so it almost never regrows.
func poissonCap(mean float64) int {
	return int(mean+4*math.Sqrt(mean)) + 16
}

// chassisOut is one worker's result slot.
type chassisOut struct {
	res        metrics.Result
	arrived    int
	unfinished int
	ledger     *Ledger
	estErr     int
	err        error
}

// parallelEach runs fn(0..n-1) across a bounded worker pool — the fleet's one
// concurrency primitive, shared by the open-loop pipeline and every epoch
// step. Worker w owns the contiguous batch [w*n/W, (w+1)*n/W): no shared jobs
// channel, no per-item handoff, and position-indexed outputs land in
// contiguous runs per worker (adjacent slots share a writer except at batch
// boundaries, so result buffers don't ping-pong between caches). The epoch
// executor calls this once per epoch step, where per-item channel sends —
// one synchronized wakeup per chassis per step — used to dominate the short
// RunTo windows and drag the 4-worker run below the 1-worker baseline.
// workers <= 1 runs inline, which keeps single-worker runs trivially serial
// (and makes the shard-count invariance oracle meaningful).
func parallelEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Run executes the fleet. Open loop: route the whole stream in one window
// over estimated state, shard the chassis across the worker pool, and reduce
// in canonical order. Closed loop (fleet.epoch set): hand the arrival
// process to the epoch executor, which interleaves observation, per-window
// routing, and tick-aligned RunTo windows until the horizon, then drains.
// Both paths end in the same ordered reduction and closure audit (assemble).
func (f *Fleet) Run() (*Result, error) {
	fd, err := f.newFeed()
	if err != nil {
		return nil, err
	}
	if f.epoch > 0 {
		return f.runEpochs(fd)
	}
	d, err := newDispatcher(f.dispatcher, f.chassis)
	if err != nil {
		return nil, err
	}
	// Each chassis's window is pre-sized for its socket share of the
	// expected stream; a policy that skews routing grows a few of them.
	total := f.sockets()
	assigns := make([][]arrival, len(f.chassis))
	for i := range assigns {
		share := float64(f.chassis[i].Sockets) / float64(total)
		assigns[i] = make([]arrival, 0, poissonCap(fd.mean*share))
	}
	picks := fd.route(d, fd.horizon, make([]int, 0, poissonCap(fd.mean)), func(i int, a arrival) {
		assigns[i] = append(assigns[i], a)
	})

	// Bounded worker pool over a position-indexed output slice: each worker
	// owns a contiguous batch of chassis and writes only its own slots, and
	// the reduction below walks outs in canonical chassis order.
	outs := make([]chassisOut, len(f.chassis))
	workers := f.workerCount()
	parallelEach(workers, len(f.chassis), func(i int) {
		outs[i] = f.runChassis(i, newReplaySource(fd.benches, assigns[i]))
	})

	dispatched := make([]int, len(f.chassis))
	for i := range assigns {
		dispatched[i] = len(assigns[i])
	}
	res := &Result{
		Picks:      picks,
		Dispatcher: f.Dispatcher(),
		Workers:    workers,
	}
	return f.assemble(len(picks), dispatched, outs, res)
}

// assemble is the ordered reduction both loop modes share: fold the
// position-indexed chassis outputs into per-chassis results, merge the fault
// ledgers, audit the fleet-level closure, and aggregate. streamed and
// dispatched feed the closure audit; res arrives carrying the loop-specific
// fields (picks, workers, epoch accounting) already set.
func (f *Fleet) assemble(streamed int, dispatched []int, outs []chassisOut, res *Result) (*Result, error) {
	var errs []error
	results := make([]metrics.Result, 0, len(f.chassis))
	arrived := make([]int, len(f.chassis))
	completed := make([]int, len(f.chassis))
	unfinished := make([]int, len(f.chassis))
	for i := range f.chassis {
		ch := &f.chassis[i]
		out := &outs[i]
		if out.err != nil {
			errs = append(errs, fmt.Errorf("chassis %s: %w", ch.Name(), out.err))
			continue
		}
		results = append(results, out.res)
		arrived[i] = out.arrived
		completed[i] = out.res.Completed
		unfinished[i] = out.unfinished
		cr := ChassisResult{
			Rack:       ch.Rack,
			Slot:       ch.Slot,
			Scenario:   ch.Scenario.Name,
			Sockets:    ch.Sockets,
			Inlet:      ch.Inlet,
			Dispatched: dispatched[i],
			Arrived:    out.arrived,
			Unfinished: out.unfinished,
			Result:     out.res,
			Ledger:     out.ledger,
			EstErr:     out.estErr,
		}
		res.Chassis = append(res.Chassis, cr)
		if out.ledger != nil {
			res.Ledger.FanEnergyJ += out.ledger.FanEnergyJ
			res.Ledger.Requeues += out.ledger.Requeues
			res.Ledger.DeadSockets += out.ledger.DeadSockets
			res.Ledger.Faulted++
			if res.Ledger.Faulted == 1 || out.ledger.FlowFactor < res.Ledger.FlowFactor {
				res.Ledger.FlowFactor = out.ledger.FlowFactor
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// The fleet-level closure audit: every dispatched job arrived at its
	// chassis and the per-chassis accounting adds up. A violation here is a
	// routing or replay bug, not a simulation result.
	if err := check.FleetClosure(streamed, dispatched, arrived, completed, unfinished); err != nil {
		return nil, err
	}
	res.Aggregate = metrics.Aggregate(results)
	return res, nil
}

// runChassis simulates one chassis over its dispatched arrivals.
func (f *Fleet) runChassis(i int, src *replaySource) chassisOut {
	ch := &f.chassis[i]
	cfg, err := ch.Scenario.Config(f.seed)
	if err != nil {
		return chassisOut{err: err}
	}
	cfg.Source = src
	var h *check.Checks
	if ch.Scenario.Checks || f.Checked {
		h = check.New()
		cfg.Checks = h
	}
	if f.Telemetry != nil {
		tel := f.Telemetry.For(ch.Name())
		for range src.arrivals {
			tel.OnDispatch()
		}
		cfg.Telemetry = tel
	}
	s, err := sim.New(cfg)
	if err != nil {
		return chassisOut{err: err}
	}
	out := chassisOut{res: f.runSim(s, cfg)}
	out.arrived = s.Arrived()
	out.unfinished = s.Unfinished()
	if h != nil {
		if err := h.Err(); err != nil {
			return chassisOut{err: fmt.Errorf("invariant violation: %w", err)}
		}
	}
	if cfg.Faults != nil {
		out.ledger = &Ledger{
			FanEnergyJ:  float64(s.FanEnergyJ()),
			Requeues:    s.Requeues(),
			DeadSockets: s.DeadSockets(),
			FlowFactor:  s.FlowFactor(),
			Faulted:     1,
		}
	}
	return out
}

// runSim executes one chassis simulation, warm-starting from the WarmDir
// cache when enabled — the same contract as experiments' runSim: the cache
// is a pure accelerator, every failure along the warm path degrades to a
// cold run, and checked or instrumented runs never warm-start. The chassis's
// snapshot key includes its replay-stream signature (sim's source-identity
// hook), so two chassis share a cache entry only when their warmups really
// are bit-identical.
func (f *Fleet) runSim(s *sim.Simulator, cfg sim.Config) metrics.Result {
	if f.WarmDir == "" || cfg.Checks != nil || cfg.Telemetry != nil {
		return s.Run()
	}
	key, err := s.SnapshotKey()
	if err != nil {
		return s.Run()
	}
	path := filepath.Join(f.WarmDir, key+".dsnp")
	if data, err := os.ReadFile(path); err == nil {
		if err := s.Restore(data); err == nil {
			return s.Finish()
		}
	}
	s.RunTo(cfg.Warmup)
	if data, err := s.Snapshot(); err == nil {
		writeFileAtomic(path, data)
	}
	return s.Finish()
}

// writeFileAtomic writes data through a temp file plus rename, so concurrent
// fleet runs racing on one cache entry each land a complete capture.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
