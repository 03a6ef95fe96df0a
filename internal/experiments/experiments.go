// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Fig*/Table* function is deterministic given its options
// and returns both typed data and a rendered report table; the repository's
// top-level benchmarks and the cmd/ tools are thin wrappers around this
// package.
//
// Simulation-backed experiments (Figures 3, 11, 13, 14, 15) accept
// SimOptions. Quick() — the default — shortens the socket thermal time
// constant and the measurement window so a full sweep finishes in minutes;
// Full() keeps the paper's 30-second socket time constant with a
// proportionally longer window. Shapes are stable across the two; see
// EXPERIMENTS.md for recorded outputs.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"densim/internal/check"
	"densim/internal/metrics"
	"densim/internal/scenario"
	"densim/internal/sim"
	"densim/internal/telemetry"
	"densim/internal/units"
	"densim/internal/workload"
)

// SimOptions parameterizes the simulation-backed experiments.
type SimOptions struct {
	// Duration and Warmup are per-run simulated seconds.
	Duration units.Seconds
	Warmup   units.Seconds
	// SinkTau is the socket thermal time constant (Table III: 30 s; Quick
	// shrinks it with the window so the thermal field still reaches
	// steady state before measurement).
	SinkTau units.Seconds
	// Seeds lists the seeds averaged per cell.
	Seeds []uint64
	// Parallelism bounds concurrent simulations (0 = NumCPU).
	Parallelism int
	// Checked runs every simulation under the runtime invariant harness
	// (internal/check) and turns any violation into a cell error. The
	// DENSIM_CHECKS environment variable enables it for the presets —
	// CI's checked test leg sets it.
	Checked bool
	// Telemetry optionally instruments every simulation: each scheduler's
	// runs share one telemetry.Telemetry from this set (labeled with the
	// scheduler name), so a long sweep can be watched live through the
	// set's Prometheus endpoint (cmd/sweep -telemetry.addr). Nil disables
	// instrumentation.
	Telemetry *telemetry.Set
	// WarmDir enables warm-start forking: each run's warmup state is cached
	// on disk (keyed by the run's snapshot signature, see sim.SnapshotKey)
	// and subsequent runs with the same identity restore it instead of
	// re-simulating the warmup. Results are bit-identical either way (the
	// sim package's snapshot contract); a missing, stale, or corrupt cache
	// entry silently falls back to a cold run that rewrites it. Checked and
	// telemetry-instrumented runs always run cold — the invariant harness
	// must observe the whole run, and warm-started telemetry would undercount
	// the warmup's events. Empty disables the cache.
	WarmDir string
}

// checkedFromEnv reports whether the DENSIM_CHECKS environment variable
// asks for invariant-checked runs.
func checkedFromEnv() bool { return os.Getenv("DENSIM_CHECKS") != "" }

// Quick returns the fast preset used by tests and default benches.
func Quick() SimOptions {
	return SimOptions{Duration: 10, Warmup: 4, SinkTau: 1, Seeds: []uint64{7}, Checked: checkedFromEnv()}
}

// Full returns the paper-faithful preset: the real 30 s socket time constant
// with a window long enough to reach and measure the quasi-steady field.
func Full() SimOptions {
	return SimOptions{Duration: 150, Warmup: 90, SinkTau: 30, Seeds: []uint64{7, 8}, Checked: checkedFromEnv()}
}

func (o SimOptions) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.NumCPU()
}

// Cell identifies one (scheduler, workload, load) simulation point on the
// SUT.
type Cell struct {
	Sched string
	Class workload.Class
	Load  float64
}

// String implements fmt.Stringer.
func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/%.0f%%", c.Sched, c.Class, c.Load*100)
}

// Runner executes and memoizes SUT simulation cells. It is safe for
// concurrent use: overlapping Result and Prefetch calls for the same cell
// are coalesced (single-flight), so every cell simulates exactly once, and
// a cell's seeds run as parallel simulations under a shared worker
// semaphore. Only the leaf (per-seed) goroutines hold semaphore slots —
// cell- and batch-level goroutines never do — so an arbitrary number of
// concurrent cells cannot deadlock the pool.
type Runner struct {
	opts SimOptions
	sem  chan struct{} // worker slots, held only around a single sim run

	mu    sync.Mutex
	calls map[Cell]*cellCall

	runs atomic.Int64
}

// cellCall is the single-flight record for one cell: the first caller
// computes, everyone else waits on done and reads the shared outcome.
type cellCall struct {
	done chan struct{}
	res  metrics.Result
	err  error
}

// NewRunner creates a memoizing runner.
func NewRunner(opts SimOptions) *Runner {
	return &Runner{
		opts:  opts,
		sem:   make(chan struct{}, opts.workers()),
		calls: map[Cell]*cellCall{},
	}
}

// Result returns the averaged result of a cell, computing it on first use.
// Concurrent calls for the same cell share one computation; the outcome
// (including an error) is memoized.
func (r *Runner) Result(c Cell) (metrics.Result, error) {
	r.mu.Lock()
	if call, ok := r.calls[c]; ok {
		r.mu.Unlock()
		<-call.done
		return call.res, call.err
	}
	call := &cellCall{done: make(chan struct{})}
	r.calls[c] = call
	r.mu.Unlock()

	r.runs.Add(1)
	call.res, call.err = r.runCell(c)
	close(call.done)
	return call.res, call.err
}

// Runs reports how many distinct cell computations the runner has started —
// a diagnostic for the single-flight guarantee (it equals the number of
// unique cells requested, however many concurrent callers raced on them).
func (r *Runner) Runs() int64 { return r.runs.Load() }

// Prefetch computes a batch of cells concurrently. Cells already computed
// (or in flight) are joined, not recomputed. Every failing cell is reported:
// the returned error joins one error per failed cell (nil if none failed),
// so a sweep surfaces all its broken cells in one pass.
func (r *Runner) Prefetch(cells []Cell) error {
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c Cell) {
			defer wg.Done()
			if _, err := r.Result(c); err != nil {
				errs[i] = fmt.Errorf("cell %s: %w", c, err)
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// cellScenario declares a cell as a scenario: the sut-180 preset with the
// cell's scheduler/workload/load and the runner's windows applied. The
// scheduler seed is pinned to 1 (the historical serial implementation's
// choice) while the run seed varies, so multi-seed averages vary arrivals,
// not placement RNG.
func (r *Runner) cellScenario(c Cell) (*scenario.Scenario, error) {
	sc, err := scenario.Preset("sut-180")
	if err != nil {
		return nil, err
	}
	sc.Scheduler.Name = c.Sched
	sc.Scheduler.Seed = 1
	sc.Workload.Class = c.Class.String()
	sc.Workload.Load = c.Load
	sc.Run.Seeds = append([]uint64(nil), r.opts.Seeds...)
	sc.Run.DurationS = float64(r.opts.Duration)
	sc.Run.WarmupS = float64(r.opts.Warmup)
	sc.Run.SinkTauS = float64(r.opts.SinkTau)
	sc.Checks = r.opts.Checked
	return sc, nil
}

// runCell executes one cell's seeds as parallel simulations and averages
// them. The per-seed configs are built declaratively through the scenario
// layer (see cellScenario); each seed run gets its own scheduler instance
// (schedulers carry per-run RNG and scratch state), so single-seed presets
// reproduce the serial implementation's output exactly. Results are
// averaged in seed order regardless of completion order, so the average is
// deterministic too.
func (r *Runner) runCell(c Cell) (metrics.Result, error) {
	sc, err := r.cellScenario(c)
	if err != nil {
		return metrics.Result{}, err
	}
	telFor := func() *telemetry.Telemetry {
		// Telemetry aggregates: all of a scheduler's seeds and cells share
		// the instance labeled with its name.
		if r.opts.Telemetry == nil {
			return nil
		}
		return r.opts.Telemetry.For(c.Sched)
	}
	return r.runScenario(sc, telFor)
}

// runScenario executes a scenario's seeds as parallel simulations under the
// runner's worker semaphore and averages them. telFor supplies the shared
// telemetry instance for the scenario's runs (nil function or nil result
// disables instrumentation).
func (r *Runner) runScenario(sc *scenario.Scenario, telFor func() *telemetry.Telemetry) (metrics.Result, error) {
	// Surface configuration errors once, before fanning out.
	if _, err := sc.Config(sc.FirstSeed()); err != nil {
		return metrics.Result{}, err
	}
	seeds := sc.Seeds()
	results := make([]metrics.Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			r.sem <- struct{}{} // leaf-level slot: held only while simulating
			defer func() { <-r.sem }()
			cfg, err := sc.Config(seed)
			if err != nil {
				errs[i] = err
				return
			}
			// The harness is stateful per run: each seed gets its own.
			var h *check.Checks
			if sc.Checks || r.opts.Checked {
				h = check.New()
				cfg.Checks = h
			}
			if telFor != nil {
				cfg.Telemetry = telFor()
			}
			s, err := sim.New(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = s.RunWarm(r.opts.WarmDir)
			if h != nil {
				if err := h.Err(); err != nil {
					errs[i] = fmt.Errorf("seed %d: %w", seed, err)
				}
			}
		}(i, seed)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return metrics.Result{}, err
		}
	}
	return averageResults(results), nil
}

// averageResults merges per-seed results by arithmetic mean — every field,
// including Completed (rounded to the nearest job). Summing counts while
// averaging everything else would inflate any throughput derived as
// Completed/Span by the number of seeds.
func averageResults(rs []metrics.Result) metrics.Result {
	if len(rs) == 1 {
		return rs[0]
	}
	n := float64(len(rs))
	out := metrics.Result{
		RegionFreq:      map[metrics.Region]float64{},
		RegionWorkShare: map[metrics.Region]float64{},
		ZoneWorkShare:   map[int]float64{},
		ZoneFreq:        map[int]float64{},
	}
	var completed float64
	for _, r := range rs {
		completed += float64(r.Completed) / n
		out.MeanExpansion += r.MeanExpansion / n
		out.MeanServiceExpansion += r.MeanServiceExpansion / n
		out.MeanWaitSeconds += r.MeanWaitSeconds / n
		out.EnergyJ += r.EnergyJ / units.Joules(n)
		out.Span += r.Span / units.Seconds(n)
		out.BoostResidency += r.BoostResidency / n
		out.BusySocketSeconds += r.BusySocketSeconds / n
		out.CompletedWorkSeconds += r.CompletedWorkSeconds / n
		for k, v := range r.RegionFreq {
			out.RegionFreq[k] += v / n
		}
		for k, v := range r.RegionWorkShare {
			out.RegionWorkShare[k] += v / n
		}
		for k, v := range r.ZoneWorkShare {
			out.ZoneWorkShare[k] += v / n
		}
		for k, v := range r.ZoneFreq {
			out.ZoneFreq[k] += v / n
		}
	}
	out.Completed = int(math.Round(completed))
	return out
}

// PaperLoads lists the load levels of Figures 14 and 15.
func PaperLoads() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}
