package experiments

// The fleet sweep — the paper's scheduler question asked one level up. At
// chassis scale the coupling-aware CP policy beats coolest-first CF by
// placing around the airflow shadow; at fleet scale a dispatcher chooses the
// chassis before either policy runs. This sweep crosses fleet sizes x
// dispatcher policies x intra-chassis schedulers at the high-load knee
// (FaultLoad, where routing mistakes cost completed work) on a fleet whose
// rack 1 sits in a 24C hot aisle — so the thermal dispatcher has a real
// gradient to exploit and its hot-aisle routing share is directly readable.

import (
	"errors"
	"fmt"

	"densim/internal/fleet"
	"densim/internal/metrics"
	"densim/internal/report"
	"densim/internal/scenario"
)

// FleetSizes returns the default fleet sizes the sweep walks.
func FleetSizes() []int { return []int{2, 4} }

// FleetEpochs returns the default loop-mode axis: open loop (0) against a
// closed loop observing every 0.25s — the head-to-head the fleet's epochs
// exist to answer.
func FleetEpochs() []float64 { return []float64{0, 0.25} }

// HotAisleInletC is the sweep's rack-1 inlet temperature: the +6C hot aisle
// the thermal dispatcher gets to route around.
const HotAisleInletC = 24

// FleetRow is one (size, dispatcher, scheduler) sweep point, averaged over
// the option seeds.
type FleetRow struct {
	// Size is the chassis count; racks 0 and 1 split it evenly (rack 0
	// takes the odd chassis), rack 1 in the hot aisle.
	Size       int
	Dispatcher string
	Sched      string
	Load       float64
	// EpochS is the closed-loop epoch period (0 = open-loop dispatch).
	EpochS float64
	// Completed and CompletedWork are fleet-wide totals per run (seed
	// mean); Expansion and EnergyPerWorkJ are the fleet aggregates.
	Completed      float64
	CompletedWork  float64
	Expansion      float64
	EnergyPerWorkJ float64
	// HotShare is the fraction of fleet arrivals the dispatcher routed to
	// hot-aisle (rack 1) chassis — 1/2 for round-robin by construction;
	// the thermal policy's signature is pushing it below that.
	HotShare float64
	// EstErr is the fleet-wide accumulated |estimated − observed| in-flight
	// divergence at epoch boundaries (seed mean; 0 on open-loop points,
	// where nothing observes).
	EstErr float64
}

// FleetSweepResult is the typed outcome of a fleet sweep.
type FleetSweepResult struct {
	Rows []FleetRow
}

// FleetSweep crosses fleet sizes x dispatchers x schedulers x loop modes on
// hot/cold aisle fleets built from the template scenario (nil = the sut-180
// preset) and reports fleet-wide outcomes. Zero-value sizes, dispatchers,
// scheds, and epochs fall back to FleetSizes, scenario.FleetDispatchers,
// FaultScheds, and FleetEpochs (open loop vs closed at 0.25s). The offered
// load is pinned to FaultLoad — the knee where dispatch quality binds.
func FleetSweep(opts SimOptions, template *scenario.Scenario, sizes []int, dispatchers, scheds []string, epochs []float64) (*FleetSweepResult, *report.Table, error) {
	if template == nil {
		var err error
		if template, err = scenario.Preset("sut-180"); err != nil {
			return nil, nil, err
		}
	}
	if len(sizes) == 0 {
		sizes = FleetSizes()
	}
	if len(dispatchers) == 0 {
		dispatchers = scenario.FleetDispatchers()
	}
	if len(scheds) == 0 {
		scheds = FaultScheds()
	}
	if len(epochs) == 0 {
		epochs = FleetEpochs()
	}
	res := &FleetSweepResult{}
	var errs []error
	for _, size := range sizes {
		if size < 2 {
			errs = append(errs, fmt.Errorf("fleet sweep: size %d has no hot aisle to contrast", size))
			continue
		}
		for _, disp := range dispatchers {
			for _, sched := range scheds {
				for _, epochS := range epochs {
					row, err := fleetPoint(opts, template, size, disp, sched, epochS)
					if err != nil {
						errs = append(errs, fmt.Errorf("fleet sweep: size %d %s/%s epoch %g: %w", size, disp, sched, epochS, err))
						continue
					}
					res.Rows = append(res.Rows, row)
				}
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	t := &report.Table{
		Title: "fleet-sweep",
		Header: []string{"size", "dispatcher", "sched", "load", "epoch_s",
			"completed", "completed_work_s", "expansion", "energy_per_work_j",
			"hot_share", "est_err"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Size, r.Dispatcher, r.Sched, r.Load, r.EpochS,
			fmt.Sprintf("%.1f", r.Completed), fmt.Sprintf("%.1f", r.CompletedWork),
			fmt.Sprintf("%.4f", r.Expansion), fmt.Sprintf("%.2f", r.EnergyPerWorkJ),
			fmt.Sprintf("%.3f", r.HotShare), fmt.Sprintf("%.1f", r.EstErr))
	}
	return res, t, nil
}

// fleetPoint runs one sweep point across the option seeds and averages.
func fleetPoint(opts SimOptions, template *scenario.Scenario, size int, disp, sched string, epochS float64) (FleetRow, error) {
	sc := *template
	sc.Workload.Load = FaultLoad
	sc.Scheduler.Name = sched
	// Pin the placement RNG so multi-seed averages vary arrivals only,
	// matching the figure sweeps' convention.
	sc.Scheduler.Seed = 1
	sc.Run.Seeds = append([]uint64(nil), opts.Seeds...)
	sc.Run.DurationS = float64(opts.Duration)
	sc.Run.WarmupS = float64(opts.Warmup)
	sc.Run.SinkTauS = float64(opts.SinkTau)
	cold := (size + 1) / 2
	sc.Fleet = &scenario.Fleet{
		Dispatcher: disp,
		Chassis: []scenario.FleetChassis{
			{Rack: 0, Chassis: 0, Count: cold},
			{Rack: 1, Chassis: 0, Count: size - cold, InletC: HotAisleInletC},
		},
	}
	if epochS > 0 {
		sc.Fleet.Epoch = &scenario.FleetEpoch{PeriodS: epochS}
	}
	row := FleetRow{Size: size, Dispatcher: disp, Sched: sched, Load: FaultLoad, EpochS: epochS}
	aggs := make([]metrics.Result, 0, len(opts.Seeds))
	hotShare := 0.0
	estErr := 0.0
	for _, seed := range opts.Seeds {
		f, err := fleet.New(&sc, seed)
		if err != nil {
			return row, err
		}
		f.Checked = opts.Checked
		f.WarmDir = opts.WarmDir
		fr, err := f.Run()
		if err != nil {
			return row, err
		}
		aggs = append(aggs, fr.Aggregate)
		total, hot, est := 0, 0, 0
		for i := range fr.Chassis {
			total += fr.Chassis[i].Dispatched
			if fr.Chassis[i].Rack == 1 {
				hot += fr.Chassis[i].Dispatched
			}
			est += fr.Chassis[i].EstErr
		}
		if total > 0 {
			hotShare += float64(hot) / float64(total)
		}
		estErr += float64(est)
	}
	mean := averageResults(aggs)
	row.Completed = float64(mean.Completed)
	row.CompletedWork = mean.CompletedWorkSeconds
	row.Expansion = mean.MeanExpansion
	row.EnergyPerWorkJ = mean.EnergyPerWork()
	row.HotShare = hotShare / float64(len(opts.Seeds))
	row.EstErr = estErr / float64(len(opts.Seeds))
	return row, nil
}
