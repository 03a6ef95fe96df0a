// Package metrics defines the measurement types the simulator fills and the
// paper's derived quantities: average runtime expansion (Figures 11, 14),
// per-region frequency and work-done breakdowns (Figure 13), and the
// energy-delay-squared product (Figure 15).
package metrics

import (
	"fmt"

	"densim/internal/stats"
	"densim/internal/units"
)

// Region is a location grouping of Figure 13.
type Region int

// The three regions the paper reports: front half (zones 1-3), back half
// (zones 4-6), and the even zones with the 30-fin heat sink.
const (
	FrontHalf Region = iota
	BackHalf
	EvenZones
	numRegions
)

// Regions lists all regions in presentation order.
var Regions = []Region{FrontHalf, BackHalf, EvenZones}

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case FrontHalf:
		return "front-half"
	case BackHalf:
		return "back-half"
	case EvenZones:
		return "even-zones"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Collector accumulates simulation measurements. The simulator calls the
// On* hooks; everything else is derived.
type Collector struct {
	// Job accounting.
	completed  int
	sojournExp stats.Welford // (done-arrival)/nominal per job
	serviceExp stats.Welford // (done-started)/nominal per job
	waitSec    stats.Welford // (started-arrival) per job, seconds
	totalWork  float64 // seconds of FMax-equivalent work completed
	regionWork [numRegions]float64
	// Per-zone accumulators are dense slices indexed by zone number (zones
	// are small ints), with presence bits distinguishing "zone never seen"
	// from a genuine zero — the map-based predecessor encoded presence as key
	// existence. Slices keep the per-job-completion hot path free of map
	// hashing.
	zoneWork    []float64
	zoneWorkSet []bool
	// Busy-time-weighted relative frequency per region and zone.
	regionFreq  [numRegions]stats.Welford
	zoneFreq    []stats.Welford
	zoneFreqSet []bool
	// Energy.
	energyJ float64
	// Wall clock.
	start, end units.Seconds
	// Boost residency: busy seconds spent in boost states.
	busySeconds  float64
	boostSeconds float64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// growZone extends the zone slices to cover zone z.
func (c *Collector) growZone(z int) {
	for len(c.zoneWork) <= z {
		c.zoneWork = append(c.zoneWork, 0)
		c.zoneWorkSet = append(c.zoneWorkSet, false)
		c.zoneFreq = append(c.zoneFreq, stats.Welford{})
		c.zoneFreqSet = append(c.zoneFreqSet, false)
	}
}

// JobPlacement describes where a completed job ran.
type JobPlacement struct {
	Zone      int
	FrontHalf bool
	EvenZone  bool
}

// OnJobComplete records a finished job. nominal is the FMax service time,
// sojourn the arrival-to-done time, service the start-to-done time.
func (c *Collector) OnJobComplete(nominal, sojourn, service units.Seconds, at JobPlacement) {
	c.completed++
	c.sojournExp.Add(float64(sojourn) / float64(nominal))
	c.serviceExp.Add(float64(service) / float64(nominal))
	c.waitSec.Add(float64(sojourn - service))
	c.totalWork += float64(nominal)
	if at.FrontHalf {
		c.regionWork[FrontHalf] += float64(nominal)
	} else {
		c.regionWork[BackHalf] += float64(nominal)
	}
	if at.EvenZone {
		c.regionWork[EvenZones] += float64(nominal)
	}
	if at.Zone >= len(c.zoneWork) {
		c.growZone(at.Zone)
	}
	c.zoneWork[at.Zone] += float64(nominal)
	c.zoneWorkSet[at.Zone] = true
}

// OnBusySegment records dt seconds of a socket running at relFreq (frequency
// relative to FMax) in the given placement.
func (c *Collector) OnBusySegment(dt units.Seconds, relFreq float64, boost bool, at JobPlacement) {
	w := float64(dt)
	if w <= 0 {
		return
	}
	c.busySeconds += w
	if boost {
		c.boostSeconds += w
	}
	if at.FrontHalf {
		c.regionFreq[FrontHalf].AddWeighted(relFreq, w)
	} else {
		c.regionFreq[BackHalf].AddWeighted(relFreq, w)
	}
	if at.EvenZone {
		c.regionFreq[EvenZones].AddWeighted(relFreq, w)
	}
	if at.Zone >= len(c.zoneFreq) {
		c.growZone(at.Zone)
	}
	c.zoneFreq[at.Zone].AddWeighted(relFreq, w)
	c.zoneFreqSet[at.Zone] = true
}

// OnEnergy accumulates consumed energy.
func (c *Collector) OnEnergy(j units.Joules) { c.energyJ += float64(j) }

// OnEnergyRepeat accumulates n consecutive OnEnergy(j) calls. It runs the
// identical dependent addition chain — bit-for-bit the same accumulator
// trajectory — but keeps it in a register instead of paying a call and a
// memory round-trip per addition. The simulator's event-gap advance
// replays a dead tail's idle energy through this on homogeneous servers.
func (c *Collector) OnEnergyRepeat(j units.Joules, n int) {
	e := c.energyJ
	v := float64(j)
	for ; n > 0; n-- {
		e += v
	}
	c.energyJ = e
}

// SetSpan records the simulated wall-clock span.
func (c *Collector) SetSpan(start, end units.Seconds) { c.start, c.end = start, end }

// Result is the digested outcome of one simulation run.
type Result struct {
	// Completed is the number of jobs finished.
	Completed int
	// MeanExpansion is the mean sojourn expansion (arrival to completion
	// over FMax service time) — the paper's average runtime expansion;
	// lower is better.
	MeanExpansion float64
	// MeanServiceExpansion excludes queueing delay.
	MeanServiceExpansion float64
	// MeanWaitSeconds is the mean queueing delay (arrival to start) in
	// seconds — directly comparable to M/G/c approximations.
	MeanWaitSeconds float64
	// EnergyJ is total consumed energy.
	EnergyJ units.Joules
	// Span is the simulated wall-clock duration.
	Span units.Seconds
	// BoostResidency is the fraction of busy socket-time in boost states.
	BoostResidency float64
	// BusySocketSeconds is the total socket-time spent running jobs.
	BusySocketSeconds float64
	// CompletedWorkSeconds is the FMax-equivalent work completed (the sum
	// of nominal durations). Work conservation bounds it by
	// BusySocketSeconds.
	CompletedWorkSeconds float64
	// RegionFreq is the busy-time-weighted mean relative frequency per
	// region (Figure 13's "Frequency").
	RegionFreq map[Region]float64
	// RegionWorkShare is the fraction of completed work per region
	// (Figure 13's "Workdone").
	RegionWorkShare map[Region]float64
	// ZoneWorkShare maps zone number to its share of completed work.
	ZoneWorkShare map[int]float64
	// ZoneFreq maps zone number to mean relative busy frequency.
	ZoneFreq map[int]float64
}

// Finalize digests the collected data.
func (c *Collector) Finalize() Result {
	r := Result{
		Completed:            c.completed,
		MeanExpansion:        c.sojournExp.Mean(),
		MeanServiceExpansion: c.serviceExp.Mean(),
		MeanWaitSeconds:      c.waitSec.Mean(),
		EnergyJ:              units.Joules(c.energyJ),
		Span:                 c.end - c.start,
		RegionFreq:           map[Region]float64{},
		RegionWorkShare:      map[Region]float64{},
		ZoneWorkShare:        map[int]float64{},
		ZoneFreq:             map[int]float64{},
	}
	if c.busySeconds > 0 {
		r.BoostResidency = c.boostSeconds / c.busySeconds
	}
	r.BusySocketSeconds = c.busySeconds
	r.CompletedWorkSeconds = c.totalWork
	for _, reg := range Regions {
		r.RegionFreq[reg] = c.regionFreq[reg].Mean()
		if c.totalWork > 0 {
			r.RegionWorkShare[reg] = c.regionWork[reg] / c.totalWork
		}
	}
	for z, w := range c.zoneWork {
		if c.zoneWorkSet[z] && c.totalWork > 0 {
			r.ZoneWorkShare[z] = w / c.totalWork
		}
	}
	for z := range c.zoneFreq {
		if c.zoneFreqSet[z] {
			r.ZoneFreq[z] = c.zoneFreq[z].Mean()
		}
	}
	return r
}

// RelativePerformance returns this result's performance relative to a
// baseline: expansion_baseline / expansion_this. Values above 1 mean this
// run is faster — the y axis of Figure 14.
func (r Result) RelativePerformance(baseline Result) float64 {
	if r.MeanExpansion == 0 {
		return 0
	}
	return baseline.MeanExpansion / r.MeanExpansion
}

// ED2 returns the energy-delay-squared product using mean expansion as the
// delay term.
func (r Result) ED2() float64 {
	return float64(r.EnergyJ) * r.MeanExpansion * r.MeanExpansion
}

// RelativeED2 returns this result's ED2 normalized to a baseline — the y
// axis of Figure 15; lower is better.
func (r Result) RelativeED2(baseline Result) float64 {
	b := baseline.ED2()
	if b == 0 {
		return 0
	}
	return r.ED2() / b
}
