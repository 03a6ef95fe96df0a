package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"densim/internal/airflow"
	"densim/internal/metrics"
	"densim/internal/scenario"
	"densim/internal/sim"
	"densim/internal/telemetry"
	"densim/internal/units"
)

// The knee workload: one double-density-360 run (DoC 12, 360 sockets) with
// CP, the Computation mix at 90% load, the paper's 30 s socket time
// constant, a cold start and the default engine, stepped with RunTo in
// fixed 0.1-simulated-second steps (100 per run) and ended with Finish.
// Batches repeat until the measured phase reaches its budget; each batch is
// one run, of the next of the kneeInputs arrival streams drawn from the run
// seed.

const (
	kneeHorizonS = 10.0
	kneeStepS    = 0.1
	// setupReps is how many readings each repeated set-up or construction
	// takes; the metric is their median, since one sub-millisecond reading
	// does not repeat. setupWarmup readings are discarded first: the first
	// constructions of a process also pay its heap's growth.
	setupReps   = 100
	setupWarmup = 10
	// kneeInputs is how many arrival streams one knee run draws from its
	// seed. The job pool grows to a run's peak backlog, which at the knee
	// moves a stream's allocation by up to 2x from seed to seed; the median
	// over several streams does not move that much.
	kneeInputs = 8
)

// kneeSeeds are the simulation seeds of the run seed's arrival streams.
func kneeSeeds(seed uint64) []uint64 {
	seeds := make([]uint64, kneeInputs)
	for i := range seeds {
		seeds[i] = seed*kneeInputs + uint64(i)
	}
	return seeds
}

// kneeScenario is the knee input for a list of simulation seeds; mode "" is
// the default engine, sim.EngineSerial the reference.
func kneeScenario(seeds []uint64, mode string) (*scenario.Scenario, error) {
	sc, err := scenario.Preset("double-density-360")
	if err != nil {
		return nil, err
	}
	sc.Name = "knee-dd360-cp90"
	sc.Workload.Class = "Computation"
	sc.Workload.Load = 0.9
	sc.Scheduler.Name = "CP"
	sc.Run.Seeds = seeds
	sc.Run.DurationS = kneeHorizonS
	sc.Run.SinkTauS = 30
	sc.Engine.Mode = mode
	return sc, nil
}

// writeScenario stores a generated input where the run loads it from.
func writeScenario(dir, name string, sc *scenario.Scenario) (string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := sc.Encode(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// loadSim is what a user pays before the first step: load the scenario,
// build its config and construct the simulator.
func loadSim(path string, seed uint64) (*scenario.Scenario, *sim.Simulator, error) {
	sc, err := scenario.Load(path)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := sc.Config(seed)
	if err != nil {
		return nil, nil, err
	}
	s, err := sim.New(cfg)
	return sc, s, err
}

// stepKnee advances s over the horizon in fixed steps, appending each
// step's host latency (ms), then finishes the run.
func stepKnee(s *sim.Simulator, steps *[]float64, tr *tracer) (metrics.Result, time.Duration) {
	n := int(math.Round(kneeHorizonS / kneeStepS))
	for k := 1; k <= n; k++ {
		tr.begin("sim.RunTo", k)
		t0 := time.Now()
		s.RunTo(units.Seconds(float64(k) * kneeStepS))
		d := time.Since(t0)
		tr.end()
		*steps = append(*steps, ms(d))
	}
	tr.begin("sim.Finish", n+1)
	t0 := time.Now()
	res := s.Finish()
	fin := time.Since(t0)
	tr.end()
	return res, fin
}

// kneeWant is the knee's reference digest for one simulation seed: a
// serial-engine run.
func kneeWant(seed uint64) (string, error) {
	sc, err := kneeScenario([]uint64{seed}, sim.EngineSerial)
	if err != nil {
		return "", err
	}
	cfg, err := sc.Config(seed)
	if err != nil {
		return "", err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return "", err
	}
	return resultDigest(s.Run()), nil
}

// kneeWants is the reference digest of each simulation seed: pinned, or a
// serial-engine run, at most nproc at a time.
func kneeWants(pinned map[string]string, seeds []uint64) (want map[uint64]string, computed int, err error) {
	want = map[uint64]string{}
	var missing []uint64
	for _, s := range seeds {
		if d, ok := pinned[seedKey(s)]; ok {
			want[s] = d
		} else if !slices.Contains(missing, s) {
			missing = append(missing, s)
		}
	}
	digests := make([]string, len(missing))
	errs := make([]error, len(missing))
	slots := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, s := range missing {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			digests[i], errs[i] = kneeWant(s)
		}()
	}
	wg.Wait()
	for i, s := range missing {
		want[s] = digests[i]
	}
	return want, len(missing), errors.Join(errs...)
}

// kneeDigest is one checked knee run.
type kneeDigest struct {
	seed   uint64
	digest string
}

func runKnee(e *env) error {
	seeds := kneeSeeds(e.seed)
	sc, err := kneeScenario(seeds, "")
	if err != nil {
		return err
	}
	path, err := writeScenario(e.work, "knee.json", sc)
	if err != nil {
		return err
	}
	e.setup = &sampler{fn: func() (time.Duration, error) {
		t0 := time.Now()
		_, _, err := loadSim(path, seeds[0])
		return time.Since(t0), err
	}}
	workers, err := resolvedWorkers(sc, seeds[0])
	if err != nil {
		return err
	}
	e.prov["engine_workers"] = workers
	e.prov["knee_seeds"] = seeds

	var runs []kneeDigest
	if e.traced {
		runs, err = kneeTraced(e, path, seeds[0])
	} else {
		runs, err = kneeMeasured(e, path, seeds)
	}
	if err != nil {
		return err
	}
	used := make([]uint64, len(runs))
	for i, r := range runs {
		used[i] = r.seed
	}
	want, computed, err := kneeWants(e.pinned.Knee, used)
	if err != nil {
		return err
	}
	e.prov["reference_knee"] = fmt.Sprintf("%d pinned, %d serial runs of the same seed", len(want)-computed, computed)
	for i, r := range runs {
		e.chk.expect(fmt.Sprintf("knee run %d (seed %d) metrics.Result", i, r.seed), r.digest, want[r.seed])
	}
	return nil
}

func kneeMeasured(e *env, path string, seeds []uint64) ([]kneeDigest, error) {
	var steps []float64
	var runs []kneeDigest
	err := e.measureBatches(func() (cost, error) {
		seed := seeds[len(runs)%len(seeds)]
		_, s, err := loadSim(path, seed)
		if err != nil {
			return cost{}, err
		}
		var res metrics.Result
		c, _ := measure(func() error {
			res, _ = stepKnee(s, &steps, nil)
			return nil
		})
		runs = append(runs, kneeDigest{seed, resultDigest(res)})
		return c, nil
	}, 0)
	e.extra["step_p50_ms"] = percentile(steps, 50)
	e.extra["step_p95_ms"] = percentile(steps, 95)
	e.prov["steps"] = len(steps)
	return runs, err
}

func kneeTraced(e *env, path string, seed uint64) ([]kneeDigest, error) {
	sc, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	if err := constructionCosts(e, path, sc, seed); err != nil {
		return nil, err
	}

	// Untraced, traced, traced, untraced, so order effects cancel in the
	// overhead ratio; the traced twins carry only the telemetry seams. A fifth
	// run adds the Pick-timing decorator, whose own cost is the benchmark's
	// and stays out of the overhead. The step, tick and counter readings come
	// from the last traced twin.
	const (
		untraced = iota
		telemetryOnly
		pickTimed
	)
	var plain, traced, last cost
	var runs []kneeDigest
	var tel *telemetry.Telemetry
	var picks *pickTimer
	var pickRun cost
	var steps []float64
	var fin time.Duration
	for i, mode := range []int{untraced, telemetryOnly, telemetryOnly, untraced, pickTimed} {
		cfg, err := sc.Config(seed)
		if err != nil {
			return nil, err
		}
		var stepLat []float64
		var tr *tracer
		var runTel *telemetry.Telemetry
		if mode != untraced {
			runTel = telemetry.New("knee")
			cfg.Telemetry = runTel
			tr = e.tr
		}
		if mode == pickTimed {
			picks = &pickTimer{tr: e.tr}
			cfg.Scheduler = picks.wrap(cfg.Scheduler)
		}
		s, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		var res metrics.Result
		var f time.Duration
		c, _ := measure(func() error {
			tr.begin("knee.run", i)
			res, f = stepKnee(s, &stepLat, tr)
			tr.end()
			return nil
		})
		runs = append(runs, kneeDigest{seed, resultDigest(res)})
		switch mode {
		case untraced:
			plain = plain.add(c)
		case telemetryOnly:
			traced = traced.add(c)
			tel, last, steps, fin = runTel, c, stepLat, f
		case pickTimed:
			pickRun = c
		}
	}

	c := readCounters(tel)
	e.layer["sim.step_ms.p50"] = percentile(steps, 50)
	e.layer["sim.step_ms.p95"] = percentile(steps, 95)
	e.layer["sim.finish_ms"] = ms(fin)
	if ex := c.executed(); ex > 0 {
		e.layer["sim.us_per_tick"] = float64(last.wall.Microseconds()) / float64(ex)
	}
	c.report(e, lanesOf(tel))
	e.layer["sched.pick_ns.p50"] = percentile(picks.lat, 50)
	e.layer["sched.pick_ns.p95"] = percentile(picks.lat, 95)
	e.layer["sched.pick_share"] = float64(picks.total) / float64(pickRun.wall)
	e.layer["telemetry.overhead_pct"] = overheadPct(traced.wall, plain.wall)
	e.prov["steps"] = len(steps)
	return runs, nil
}

// constructionCosts times the set-up layers one call at a time.
func constructionCosts(e *env, path string, sc *scenario.Scenario, seed uint64) error {
	load, err := medianOf(setupReps, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := scenario.Load(path)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	srv, err := sc.Server()
	if err != nil {
		return err
	}
	params := sc.AirflowParams()
	af, err := medianOf(setupReps, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := airflow.New(srv, params)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	newSim, err := medianOf(setupReps, func() (time.Duration, error) {
		cfg, err := sc.Config(seed)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = sim.New(cfg)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	e.layer["scenario.load_ms"] = ms(load)
	e.layer["airflow.new_ms"] = ms(af)
	e.layer["sim.new_ms"] = ms(newSim)
	return nil
}

func overheadPct(traced, plain time.Duration) float64 {
	return (float64(traced)/float64(plain) - 1) * 100
}
