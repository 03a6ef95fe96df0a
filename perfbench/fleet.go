package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"densim/internal/fleet"
	"densim/internal/scenario"
	"densim/internal/sim"
	"densim/internal/telemetry"
)

// The fleet workload: fleet-2x2 (4 x SUT-180 behind the thermal dispatcher,
// rack 1 at 24 C) at the default worker count, over a horizon short enough
// that several batches fit in one measured phase. Set-up fills a warm-start
// cache with a cold open-loop run, which is also the cold baseline; each
// measured batch is a warm-started open-loop run followed by the same fleet
// closed loop with 0.25 s epochs.

const (
	fleetEpochS   = 0.25
	fleetHorizonS = 4.0
	// fillReps is how many times set-up fills a fresh warm-start cache; the
	// fill's share of setup_s is their median.
	fillReps = 3
)

// fleetScenario is the fleet input for one seed; epoch 0 is open loop.
func fleetScenario(seed uint64, epoch float64, mode string) (*scenario.Scenario, error) {
	sc, err := scenario.Preset("fleet-2x2")
	if err != nil {
		return nil, err
	}
	sc.Run.Seeds = []uint64{seed}
	sc.Run.DurationS = fleetHorizonS
	sc.Engine.Mode = mode
	if epoch > 0 {
		sc.Name = "fleet-2x2-closed"
		sc.Fleet.Epoch = &scenario.FleetEpoch{PeriodS: epoch}
	}
	return sc, nil
}

// fleetWant is the reference digest of one loop mode: a serial-engine run.
func fleetWant(seed uint64, epoch float64) (string, error) {
	sc, err := fleetScenario(seed, epoch, sim.EngineSerial)
	if err != nil {
		return "", err
	}
	f, err := fleet.New(sc, seed)
	if err != nil {
		return "", err
	}
	res, err := f.Run()
	if err != nil {
		return "", err
	}
	return fleetDigest(res), nil
}

// loadFleet loads a generated fleet input and resolves it.
func loadFleet(path string, seed uint64) (*fleet.Fleet, error) {
	sc, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	return fleet.New(sc, seed)
}

// fleetRun times one fleet.Run from outside and digests its result.
func fleetRun(e *env, f *fleet.Fleet, name string) (cost, *fleet.Result, string, error) {
	var res *fleet.Result
	c, err := measure(func() error {
		e.tr.begin(name, 0)
		defer e.tr.end()
		var err error
		res, err = f.Run()
		return err
	})
	if err != nil {
		return c, nil, "", fmt.Errorf("%s: %w", name, err)
	}
	return c, res, fleetDigest(res), nil
}

func runFleet(e *env) error {
	var paths [2]string
	for i, epoch := range []float64{0, fleetEpochS} {
		sc, err := fleetScenario(e.seed, epoch, "")
		if err != nil {
			return err
		}
		if paths[i], err = writeScenario(e.work, fmt.Sprintf("fleet-%d.json", i), sc); err != nil {
			return err
		}
	}
	e.setup = &sampler{fn: func() (time.Duration, error) {
		t0 := time.Now()
		_, err := loadFleet(paths[0], e.seed)
		if err == nil {
			_, err = loadFleet(paths[1], e.seed)
		}
		return time.Since(t0), err
	}}
	open, err := loadFleet(paths[0], e.seed)
	if err != nil {
		return err
	}
	closed, err := loadFleet(paths[1], e.seed)
	if err != nil {
		return err
	}
	digests := map[string][]string{}
	var fills []float64
	for i := 0; i < fillReps; i++ {
		open.WarmDir = filepath.Join(e.work, fmt.Sprintf("warm-%d", i))
		if err := os.MkdirAll(open.WarmDir, 0o755); err != nil {
			return err
		}
		fill, coldRes, coldDigest, err := fleetRun(e, open, "fleet.Run.open.cold")
		if err != nil {
			return err
		}
		fills = append(fills, float64(fill.wall))
		digests["open"] = append(digests["open"], coldDigest)
		e.prov["fleet_workers"] = coldRes.Workers
	}
	workers, err := resolvedWorkers(open.Chassis()[0].Scenario, e.seed)
	if err != nil {
		return err
	}
	e.prov["engine_workers"] = workers

	if e.traced {
		err = fleetTraced(e, paths[0], open, closed, digests)
	} else {
		err = e.measureBatches(func() (cost, error) {
			o, _, od, err := fleetRun(e, open, "fleet.Run.open.warm")
			if err != nil {
				return o, err
			}
			c, _, cd, err := fleetRun(e, closed, "fleet.Run.closed")
			digests["open"] = append(digests["open"], od)
			digests["closed"] = append(digests["closed"], cd)
			return o.add(c), err
		}, time.Duration(median(fills)))
	}
	if err != nil {
		return err
	}

	wantOpen, err := e.want(e.pinned.FleetOpen, "fleet_open", func() (string, error) { return fleetWant(e.seed, 0) })
	if err != nil {
		return err
	}
	wantClosed, err := e.want(e.pinned.FleetClosed, "fleet_closed", func() (string, error) { return fleetWant(e.seed, fleetEpochS) })
	if err != nil {
		return err
	}
	for i, d := range digests["open"] {
		e.chk.expect(fmt.Sprintf("fleet open run %d", i), d, wantOpen)
	}
	for i, d := range digests["closed"] {
		e.chk.expect(fmt.Sprintf("fleet closed run %d", i), d, wantClosed)
	}
	return nil
}

// fleetTraced measures the warm open loop at the default and at one worker,
// both loop modes untraced and traced, and direct Snapshot/Restore calls on
// one chassis at its warm-up boundary.
func fleetTraced(e *env, path string, open, closed *fleet.Fleet, digests map[string][]string) error {
	load, err := medianOf(setupReps, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := scenario.Load(path)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	sc, err := scenario.Load(path)
	if err != nil {
		return err
	}
	newFleet, err := medianOf(setupReps, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := fleet.New(sc, e.seed)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	e.layer["scenario.load_ms"] = ms(load)
	e.layer["fleet.new_ms"] = ms(newFleet)

	run := func(f *fleet.Fleet, name, kind string) (cost, error) {
		c, _, d, err := fleetRun(e, f, name)
		digests[kind] = append(digests[kind], d)
		return c, err
	}
	warmOpen, err := run(open, "fleet.Run.open.warm", "open")
	if err != nil {
		return err
	}
	open.SetWorkers(1)
	oneWorker, err := run(open, "fleet.Run.open.warm.1worker", "open")
	open.SetWorkers(0)
	if err != nil {
		return err
	}

	// Telemetry runs every chassis cold, so the open loop's untraced twins
	// run cold too; each loop mode runs untraced, traced, traced, untraced,
	// so order effects such as the heap's first growth cancel.
	openSet, closedSet := telemetry.NewSet(), telemetry.NewSet()
	abba := func(f *fleet.Fleet, name, kind string, set *telemetry.Set) (plain, traced cost, err error) {
		for i, on := range []bool{false, true, true, false} {
			n := name
			if on {
				f.Telemetry, n = set, name+".traced"
				if i == 2 {
					f.Telemetry = telemetry.NewSet() // counters come from the first
				}
			}
			c, err := run(f, n, kind)
			f.Telemetry = nil
			if err != nil {
				return plain, traced, err
			}
			if on {
				traced = traced.add(c)
			} else {
				plain = plain.add(c)
			}
		}
		return plain, traced, nil
	}
	warmDir := open.WarmDir
	open.WarmDir = ""
	coldOpen, tracedOpen, err := abba(open, "fleet.Run.open.cold", "open", openSet)
	open.WarmDir = warmDir
	if err != nil {
		return err
	}
	plainClosed, tracedClosed, err := abba(closed, "fleet.Run.closed", "closed", closedSet)
	if err != nil {
		return err
	}
	if err := snapshotCosts(e, open.Chassis()[0].Scenario); err != nil {
		return err
	}

	oc, cc := readCounters(openSet.Telemetries()...), readCounters(closedSet.Telemetries()...)
	all := readCounters(append(openSet.Telemetries(), closedSet.Telemetries()...)...)
	all.report(e, lanesOf(openSet.Telemetries()[0]))
	e.layer["fleet.open_s"] = warmOpen.wall.Seconds()
	e.layer["fleet.closed_s"] = plainClosed.wall.Seconds() / 2
	e.layer["fleet.warm_speedup"] = float64(coldOpen.wall) / 2 / float64(warmOpen.wall)
	e.layer["fleet.pool_speedup"] = float64(oneWorker.wall) / float64(warmOpen.wall)
	e.layer["fleet.dispatched"] = float64(oc.dispatched)
	e.layer["fleet.epochs"] = float64(cc.epochs)
	e.layer["fleet.observations"] = float64(cc.observations)
	e.layer["fleet.est_err"] = float64(cc.estErr)
	e.layer["fleet.open_alloc_mb"] = mb(warmOpen.alloc)
	e.layer["fleet.closed_alloc_mb"] = mb(plainClosed.alloc) / 2
	e.layer["telemetry.overhead_pct"] = overheadPct(tracedOpen.wall+tracedClosed.wall, coldOpen.wall+plainClosed.wall)
	return nil
}

// snapshotCosts calls Snapshot and Restore directly on one chassis config
// at its warm-up boundary.
func snapshotCosts(e *env, sc *scenario.Scenario) error {
	cfg, err := sc.Config(e.seed)
	if err != nil {
		return err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	s.RunTo(cfg.Warmup)
	var data []byte
	snap, err := medianOf(setupReps, func() (time.Duration, error) {
		e.tr.begin("sim.Snapshot", 0)
		defer e.tr.end()
		t0 := time.Now()
		var err error
		data, err = s.Snapshot()
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	restore, err := medianOf(setupReps, func() (time.Duration, error) {
		cfg, err := sc.Config(e.seed)
		if err != nil {
			return 0, err
		}
		fresh, err := sim.New(cfg)
		if err != nil {
			return 0, err
		}
		e.tr.begin("sim.Restore", 0)
		defer e.tr.end()
		t0 := time.Now()
		err = fresh.Restore(data)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	s.Finish()
	e.layer["sim.snapshot_ms"] = ms(snap)
	e.layer["sim.restore_ms"] = ms(restore)
	e.layer["sim.snapshot_kb"] = float64(len(data)) / 1024
	return nil
}
