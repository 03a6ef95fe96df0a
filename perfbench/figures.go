package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"densim/internal/airflow"
	"densim/internal/experiments"
	"densim/internal/geometry"
	"densim/internal/metrics"
	"densim/internal/report"
	"densim/internal/scenario"
	"densim/internal/sched"
	"densim/internal/sim"
	"densim/internal/telemetry"
	"densim/internal/workload"
)

// The figures workload: what a user runs to reproduce the paper. The static
// tables plus Fig 3, 11 and 13, through one experiments.Runner at
// Parallelism = nproc: 20 cells, all ten schedulers, Computation at 30% and
// 70% load. The Quick preset's windows are scaled down (figScale) so that
// several batches fit in one measured phase. Every table is rendered with
// RenderCSV. The static tables, which no simulation and no seed feeds, are
// checked against the repository's golden digests; the simulated content of
// Fig 3, 11 and 13 at the run seed is checked against serial-engine runs of
// the same inputs (pinned in digests.json, or made after the measured phase).

// goldenSeed is the seed the golden digests were rendered at; Fig 1's
// catalog study is a static table and always uses it.
const goldenSeed = 7

// figScale shrinks the Quick preset's duration, warm-up and socket time
// constant together, so the thermal field still settles before measurement.
const figScale = 0.2

// simulated lists the tables the run seed feeds; their content is checked
// through figuresWant, not the golden digests.
var simulated = map[string]bool{"fig3": true, "fig11": true, "fig13": true}

// figuresOptions is the generated input: the scaled Quick preset at the run
// seed.
func figuresOptions(seed uint64) experiments.SimOptions {
	opts := experiments.Quick()
	opts.Duration *= figScale
	opts.Warmup *= figScale
	opts.SinkTau *= figScale
	opts.Checked = false
	opts.Seeds = []uint64{seed}
	opts.Parallelism = runtime.NumCPU()
	return opts
}

// figureCells is every cell Fig 11 and Fig 13 request, in Fig 13's order.
func figureCells() []experiments.Cell {
	var cells []experiments.Cell
	for _, load := range []float64{0.3, 0.7} {
		for _, s := range sched.Names() {
			cells = append(cells, experiments.Cell{Sched: s, Class: workload.Computation, Load: load})
		}
	}
	return cells
}

// figureRun is one pass over the workload's tables.
type figureRun struct {
	tables   map[string][]byte // rendered CSV
	fig3     experiments.Fig3Result
	runner   *experiments.Runner
	render   time.Duration // total RenderCSV time
	simWall  time.Duration // Fig 11 + Fig 13 wall time
	requests int           // cells the figures asked for
	runs     int64         // cells the runner computed
}

// renderFigures renders the tables with runner r. before, when set, runs
// between the static tables and Fig 11 (the traced pass drives the cells
// through it one at a time).
func renderFigures(opts experiments.SimOptions, r *experiments.Runner, tr *tracer, before func() error) (*figureRun, error) {
	out := &figureRun{tables: map[string][]byte{}, runner: r}
	add := func(name string, t *report.Table, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		tr.begin("report.RenderCSV", 0)
		var buf bytes.Buffer
		t0 := time.Now()
		err = t.RenderCSV(&buf)
		out.render += time.Since(t0)
		tr.end()
		if err != nil {
			return fmt.Errorf("%s: render: %w", name, err)
		}
		out.tables[name] = buf.Bytes()
		return nil
	}
	tr.begin("experiments.static", 0)
	_, t1 := experiments.Table1()
	_, t2 := experiments.Table2()
	_, f1 := experiments.Fig1(goldenSeed)
	_, f2, err := experiments.Fig2()
	_, f4 := experiments.Fig4()
	_, f5 := experiments.Fig5()
	_, f6 := experiments.Fig6()
	_, f7 := experiments.Fig7()
	_, f12 := experiments.Fig12()
	tr.end()
	for _, s := range []struct {
		name string
		t    *report.Table
		err  error
	}{{"table1", t1, nil}, {"table2", t2, nil}, {"table3", experiments.Table3(), nil}, {"fig1", f1, nil},
		{"fig2", f2, err}, {"fig4", f4, nil}, {"fig5", f5, nil}, {"fig6", f6, nil}, {"fig7", f7, nil}, {"fig12", f12, nil}} {
		if err := add(s.name, s.t, s.err); err != nil {
			return nil, err
		}
	}
	tr.begin("experiments.Fig3", 0)
	fig3, f3, err := experiments.Fig3(opts)
	tr.end()
	if err := add("fig3", f3, err); err != nil {
		return nil, err
	}
	out.fig3 = fig3
	if before != nil {
		if err := before(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	tr.begin("experiments.Fig11", 0)
	rows11, f11, err := experiments.Fig11(r)
	tr.end()
	if err := add("fig11", f11, err); err != nil {
		return nil, err
	}
	tr.begin("experiments.Fig13", 0)
	rows13, f13, err := experiments.Fig13(r)
	tr.end()
	if err := add("fig13", f13, err); err != nil {
		return nil, err
	}
	out.simWall = time.Since(t0)
	out.requests = len(rows11) + len(rows13)
	out.runs = r.Runs()
	return out, nil
}

// fig3Digest covers Fig 3's four expansions, in the table's order.
func fig3Digest(res experiments.Fig3Result) string {
	d := newDigest()
	for _, topo := range []string{"coupled", "uncoupled"} {
		for _, s := range []string{"CF", "HF"} {
			d.f64(topo+"/"+s, res.Expansion[topo][s])
		}
	}
	return d.sum()
}

// cellsDigest covers every Fig 11/13 cell's metrics.Result, in
// figureCells order.
func cellsDigest(results []metrics.Result) string {
	d := newDigest()
	for _, r := range results {
		d.result(r)
	}
	return d.sum()
}

// figureDigests digests the simulated content of one pass: Fig 3 and the
// runner's memoized cell results.
func figureDigests(fr *figureRun) (fig3, cells string, err error) {
	var results []metrics.Result
	for _, c := range figureCells() {
		res, err := fr.runner.Result(c)
		if err != nil {
			return "", "", fmt.Errorf("cell %s: %w", c, err)
		}
		results = append(results, res)
	}
	return fig3Digest(fr.fig3), cellsDigest(results), nil
}

// figuresWant is the reference for the simulated figures at a seed: Fig 3's
// four runs and the 20 cells, each a serial-engine run of the same inputs
// the figures build, at most nproc at a time.
func figuresWant(seed uint64) (fig3, cells string, err error) {
	opts := figuresOptions(seed)
	f3 := experiments.Fig3Result{Expansion: map[string]map[string]float64{}}
	for _, topo := range []struct {
		name  string
		build func() *geometry.Server
	}{{"coupled", geometry.CoupledPair}, {"uncoupled", geometry.UncoupledPair}} {
		f3.Expansion[topo.name] = map[string]float64{}
		for _, name := range []string{"CF", "HF"} {
			s, err := sched.ByName(name, 1)
			if err != nil {
				return "", "", err
			}
			params := airflow.DefaultParams()
			params.Inlet = experiments.Fig3Inlet
			params.FlowPerLane = experiments.Fig3FlowPerLane
			sm, err := sim.New(sim.Config{
				Server:    topo.build(),
				Airflow:   params,
				Scheduler: s,
				Mix:       workload.ScaledClassMix(workload.Computation, experiments.Fig3TDP),
				Load:      0.5,
				Seed:      seed,
				Duration:  opts.Duration,
				Warmup:    opts.Warmup,
				SinkTau:   opts.SinkTau,
				TDP:       experiments.Fig3TDP,
				Engine:    sim.EngineConfig{Mode: sim.EngineSerial},
			})
			if err != nil {
				return "", "", err
			}
			f3.Expansion[topo.name][name] = sm.Run().MeanServiceExpansion
		}
	}

	cellList := figureCells()
	results := make([]metrics.Result, len(cellList))
	errs := make([]error, len(cellList))
	slots := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, c := range cellList {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			results[i], errs[i] = serialCell(opts, c, seed)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return "", "", err
	}
	return fig3Digest(f3), cellsDigest(results), nil
}

// serialCell runs one cell as the runner declares it (the sut-180 preset,
// scheduler seed 1, the options' windows) under the serial engine.
func serialCell(opts experiments.SimOptions, c experiments.Cell, seed uint64) (metrics.Result, error) {
	sc, err := scenario.Preset("sut-180")
	if err != nil {
		return metrics.Result{}, err
	}
	sc.Scheduler.Name = c.Sched
	sc.Scheduler.Seed = 1
	sc.Workload.Class = c.Class.String()
	sc.Workload.Load = c.Load
	sc.Run.Seeds = []uint64{seed}
	sc.Run.DurationS = float64(opts.Duration)
	sc.Run.WarmupS = float64(opts.Warmup)
	sc.Run.SinkTauS = float64(opts.SinkTau)
	sc.Engine.Mode = sim.EngineSerial
	cfg, err := sc.Config(seed)
	if err != nil {
		return metrics.Result{}, fmt.Errorf("cell %s: %w", c, err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		return metrics.Result{}, fmt.Errorf("cell %s: %w", c, err)
	}
	return s.Run(), nil
}

// checkFigures compares the static tables with the golden digests and the
// simulated content of every pass with the reference at the run seed.
func checkFigures(e *env, golden map[string]string, passes []*figureRun) error {
	var got3, gotCells []string
	for i, fr := range passes {
		names := make([]string, 0, len(fr.tables))
		for n := range fr.tables {
			if !simulated[n] {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			want, ok := golden[n]
			if !ok {
				e.chk.fail(n, fmt.Errorf("no golden digest"))
				continue
			}
			sum := sha256.Sum256(fr.tables[n])
			e.chk.expect(fmt.Sprintf("%s (pass %d)", n, i), hex.EncodeToString(sum[:]), want)
		}
		d3, dc, err := figureDigests(fr)
		if err != nil {
			e.chk.fail(fmt.Sprintf("figure cells (pass %d)", i), err)
			continue
		}
		got3, gotCells = append(got3, d3), append(gotCells, dc)
	}
	var ref3, refCells string
	var refErr error
	ref := func() {
		if ref3 == "" && refErr == nil {
			ref3, refCells, refErr = figuresWant(e.seed)
		}
	}
	want3, err := e.want(e.pinned.Fig3, "fig3", func() (string, error) { ref(); return ref3, refErr })
	if err != nil {
		return err
	}
	wantCells, err := e.want(e.pinned.FigureCells, "figure_cells", func() (string, error) { ref(); return refCells, refErr })
	if err != nil {
		return err
	}
	for i := range got3 {
		e.chk.expect(fmt.Sprintf("fig3 expansions (pass %d)", i), got3[i], want3)
		e.chk.expect(fmt.Sprintf("fig11/fig13 cell results (pass %d)", i), gotCells[i], wantCells)
	}
	return nil
}

func readGolden() (map[string]string, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading golden digests: %w", err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	return golden, nil
}

func runFigures(e *env) error {
	golden, err := readGolden()
	if err != nil {
		return err
	}
	opts := figuresOptions(e.seed)
	// Set-up: the runner plus one cell's scenario, config and simulator —
	// what the first cell pays before it simulates.
	e.setup = &sampler{fn: func() (time.Duration, error) {
		t0 := time.Now()
		experiments.NewRunner(opts)
		sc, err := scenario.Load("preset:sut-180")
		if err != nil {
			return 0, err
		}
		cfg, err := sc.Config(e.seed)
		if err != nil {
			return 0, err
		}
		_, err = sim.New(cfg)
		return time.Since(t0), err
	}}
	sut, err := scenario.Load("preset:sut-180")
	if err != nil {
		return err
	}
	workers, err := resolvedWorkers(sut, e.seed)
	if err != nil {
		return err
	}
	e.prov["engine_workers"] = workers
	e.prov["runner_parallelism"] = opts.Parallelism

	var passes []*figureRun
	if e.traced {
		passes, err = figuresTraced(e, opts)
	} else {
		err = e.measureBatches(func() (cost, error) {
			var fr *figureRun
			c, err := measure(func() error {
				var err error
				fr, err = renderFigures(opts, experiments.NewRunner(opts), nil, nil)
				return err
			})
			if err == nil {
				passes = append(passes, fr)
			}
			return c, err
		}, 0)
	}
	if err != nil {
		return err
	}
	return checkFigures(e, golden, passes)
}

// figuresTraced makes five passes: the parallel batch as measured, then the
// cells one at a time untraced, traced, traced and untraced, so per-cell and
// per-scheduler costs are visible and order effects cancel in the tracing
// overhead. The per-layer readings come from the first traced pass.
func figuresTraced(e *env, opts experiments.SimOptions) ([]*figureRun, error) {
	load, err := medianOf(setupReps, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := scenario.Load("preset:sut-180")
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	e.layer["scenario.load_ms"] = ms(load)

	par, err := renderFigures(opts, experiments.NewRunner(opts), nil, nil)
	if err != nil {
		return nil, err
	}
	passes := []*figureRun{par}

	cells := figureCells()
	oneByOne := func(r *experiments.Runner, tr *tracer, cellCost []cost) func() error {
		return func() error {
			for i, c := range cells {
				tr.begin("experiments.Runner.Result", i)
				cc, err := measure(func() error {
					_, err := r.Result(c)
					return err
				})
				tr.end()
				if err != nil {
					return fmt.Errorf("cell %s: %w", c, err)
				}
				cellCost[i] = cc
			}
			return nil
		}
	}
	var plain, traced cost
	var set *telemetry.Set
	var fr *figureRun
	var plainCells, tracedCells []cost
	for i, on := range []bool{false, true, true, false} {
		o := opts
		var tr *tracer
		cellCost := make([]cost, len(cells))
		if on {
			o.Telemetry = telemetry.NewSet()
			tr = e.tr
		}
		r := experiments.NewRunner(o)
		var pass *figureRun
		c, err := measure(func() error {
			tr.begin("figures.run", i)
			defer tr.end()
			var err error
			pass, err = renderFigures(o, r, tr, oneByOne(r, tr, cellCost))
			return err
		})
		if err != nil {
			return nil, err
		}
		passes = append(passes, pass)
		if !on {
			plain = plain.add(c)
			if plainCells == nil {
				plainCells = cellCost
			}
			continue
		}
		traced = traced.add(c)
		if set == nil {
			set, fr, tracedCells = o.Telemetry, pass, cellCost
		}
	}

	var cellWalls []float64
	var plainSum time.Duration
	for i, c := range cells {
		cellWalls = append(cellWalls, tracedCells[i].wall.Seconds())
		e.layer["sched.cell_s."+c.Sched] += tracedCells[i].wall.Seconds()
		e.layer["sched.alloc_mb."+c.Sched] += mb(tracedCells[i].alloc)
		plainSum += plainCells[i].wall
	}
	e.layer["experiments.cells"] = float64(fr.requests)
	e.layer["experiments.runs"] = float64(fr.runs)
	e.layer["experiments.memo_hit_share"] = 1 - float64(fr.runs)/float64(fr.requests)
	e.layer["experiments.cell_s.p50"] = median(cellWalls)
	e.layer["experiments.cell_s.tail"] = percentile(cellWalls, 100)
	e.layer["experiments.parallel_eff"] = float64(plainSum) / (float64(par.simWall) * float64(opts.Parallelism))
	e.layer["report.render_ms"] = ms(fr.render)
	tels := set.Telemetries()
	readCounters(tels...).report(e, lanesOf(tels[0]))
	e.layer["telemetry.overhead_pct"] = overheadPct(traced.wall, plain.wall)
	return passes, nil
}
