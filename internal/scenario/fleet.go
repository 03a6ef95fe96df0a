package scenario

// The declarative fleet block: racks x chassis of independent simulated
// servers fed by one shared arrival stream through a fleet-level dispatcher
// (internal/fleet). Like faults and skus, the block is omitempty and
// validated in two layers — the declarative checks here need no filesystem
// or built topology, and fleet.New re-validates the resolved pieces (chassis
// scenario refs loadable, configs buildable) when the fleet is assembled.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// FleetDispatchers lists the accepted fleet dispatcher policy names, in
// documentation order. The empty string defaults to round-robin.
func FleetDispatchers() []string {
	return []string{"round-robin", "least-loaded", "thermal"}
}

var fleetDispatchers = map[string]bool{
	"": true, "round-robin": true, "least-loaded": true, "thermal": true,
}

// Fleet declares a multi-chassis deployment. The enclosing scenario is the
// template: its workload, load, seeds, and run windows define the shared
// fleet arrival stream, and chassis entries without an explicit scenario ref
// simulate the template itself (minus the fleet block). Heterogeneous fleets
// mix refs — any preset or scenario file — and per-entry inlet overrides
// model hot and cold aisles.
type Fleet struct {
	// Dispatcher routes each fleet arrival to a chassis before intra-chassis
	// scheduling: "round-robin" (default), "least-loaded", or "thermal"
	// (ambient-headroom-ranked). All are deterministic.
	Dispatcher string `json:"dispatcher,omitempty"`
	// Workers bounds the chassis simulation worker pool (0 = GOMAXPROCS).
	// The worker count never affects results — only wall-clock time.
	Workers int `json:"workers,omitempty"`
	// Epoch switches the fleet to closed-loop epoch-stepped execution: all
	// chassis advance one tick-aligned window in lockstep, the dispatcher
	// observes true per-chassis state at each boundary, and assigns the
	// next window's arrivals. Absent (or with period 0) the fleet runs open
	// loop, the zero-epoch case: dispatch everything up front over
	// estimated state, then run each chassis to completion.
	Epoch *FleetEpoch `json:"epoch,omitempty"`
	// Chassis is the fleet membership; at least one entry.
	Chassis []FleetChassis `json:"chassis"`
}

// FleetEpoch parameterizes closed-loop execution.
type FleetEpoch struct {
	// PeriodS is the epoch length in simulated seconds. It must be a
	// multiple of the effective tick period so observation boundaries are
	// tick-aligned — that alignment is what keeps closed-loop dispatch
	// bit-deterministic. 0 keeps the fleet open-loop.
	PeriodS float64 `json:"period_s"`
}

// FleetChassis places one or more chassis in the fleet grid.
type FleetChassis struct {
	// Rack is the rack number (>= 0).
	Rack int `json:"rack"`
	// Chassis is the first chassis slot within the rack (>= 0).
	Chassis int `json:"chassis"`
	// Count replicates this entry into consecutive slots Chassis..
	// Chassis+Count-1 (default 1).
	Count int `json:"count,omitempty"`
	// Scenario is the chassis hardware ref — a preset name, "preset:NAME",
	// or a scenario file path. Empty simulates the enclosing template.
	Scenario string `json:"scenario,omitempty"`
	// InletC overrides the chassis inlet temperature in Celsius (0 keeps
	// the chassis scenario's own inlet) — hot-aisle placement.
	InletC float64 `json:"inlet_c,omitempty"`
}

// count returns the entry's replication count, defaulting to 1.
func (c *FleetChassis) count() int {
	if c.Count == 0 {
		return 1
	}
	return c.Count
}

// validateFleet checks the declarative fleet block without touching the
// filesystem: dispatcher known, ids non-negative, at least one chassis, no
// two entries (after count expansion) claiming the same (rack, chassis)
// slot, and no template features that cannot extend fleet-wide.
func (s *Scenario) validateFleet() error {
	f := s.Fleet
	if f == nil {
		return nil
	}
	if err := f.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if f.Epoch != nil && f.Epoch.PeriodS > 0 {
		// Layer one of the tick-alignment check: against the declarative
		// tick period (or its documented default). fleet.New re-checks
		// against the fully resolved sim config.
		tick := s.Run.TickPeriodS
		if tick == 0 {
			tick = DefaultTickPeriodS
		}
		if !EpochAligned(f.Epoch.PeriodS, tick) {
			return fmt.Errorf("scenario %q: fleet: epoch period %vs is not a positive multiple of the tick period %vs (closed-loop boundaries must be tick-aligned)",
				s.Name, f.Epoch.PeriodS, tick)
		}
	}
	if s.Workload.Trace != "" {
		return fmt.Errorf("scenario %q: fleet: a trace replaces the shared arrival stream the dispatcher splits; record per-chassis traces instead", s.Name)
	}
	if s.Snapshot.Save != "" || s.Snapshot.Load != "" {
		return fmt.Errorf("scenario %q: fleet: the snapshot block is per-chassis state; use the fleet runner's warm-start cache instead", s.Name)
	}
	return nil
}

// validate checks one Fleet block in isolation (the scenario-independent
// half of validateFleet).
func (f *Fleet) validate() error {
	if !fleetDispatchers[f.Dispatcher] {
		return fmt.Errorf("fleet: unknown dispatcher %q (have %s)", f.Dispatcher, strings.Join(FleetDispatchers(), ", "))
	}
	if f.Workers < 0 {
		return fmt.Errorf("fleet: negative workers %d", f.Workers)
	}
	if e := f.Epoch; e != nil {
		if e.PeriodS < 0 || math.IsNaN(e.PeriodS) || math.IsInf(e.PeriodS, 0) {
			return fmt.Errorf("fleet: bad epoch period_s %v", e.PeriodS)
		}
	}
	if len(f.Chassis) == 0 {
		return fmt.Errorf("fleet: needs at least one chassis")
	}
	seen := map[[2]int]bool{}
	total := 0
	for i := range f.Chassis {
		c := &f.Chassis[i]
		if c.Rack < 0 || c.Chassis < 0 {
			return fmt.Errorf("fleet: entry %d: negative rack/chassis id", i)
		}
		if c.Count < 0 {
			return fmt.Errorf("fleet: entry %d: negative count %d", i, c.Count)
		}
		if c.InletC < 0 || math.IsNaN(c.InletC) || math.IsInf(c.InletC, 0) {
			return fmt.Errorf("fleet: entry %d: bad inlet_c %v", i, c.InletC)
		}
		n := c.count()
		if total += n; total > maxFleetChassis {
			return fmt.Errorf("fleet: more than %d chassis", maxFleetChassis)
		}
		for k := 0; k < n; k++ {
			slot := [2]int{c.Rack, c.Chassis + k}
			if seen[slot] {
				return fmt.Errorf("fleet: entry %d: rack %d chassis %d declared twice", i, slot[0], slot[1])
			}
			seen[slot] = true
		}
	}
	if total == 0 {
		return fmt.Errorf("fleet: needs at least one chassis (every entry has count 0)")
	}
	return nil
}

// maxFleetChassis bounds fleet size: well past any study this simulator can
// complete, low enough that a fuzzed count cannot allocate the moon.
const maxFleetChassis = 1 << 16

// DefaultTickPeriodS is the power-manager tick period a scenario gets when
// Run.TickPeriodS is zero (Table III), shared with the sim layer's default
// so the two validation layers of the epoch alignment check agree.
const DefaultTickPeriodS = 0.001

// EpochAligned reports whether an epoch period is a positive whole multiple
// of the tick period, within one part in 1e9 — the float tolerance that
// admits every humanly written multiple (0.25s of 0.001s ticks) while
// rejecting genuinely misaligned periods. Both fleet validation layers (the
// declarative scenario check and fleet.New's resolved-config check) call
// this, so they can never drift apart.
func EpochAligned(period, tick float64) bool {
	if !(period > 0) || !(tick > 0) || math.IsInf(period, 0) || math.IsInf(tick, 0) {
		return false
	}
	n := math.Round(period / tick)
	return n >= 1 && math.Abs(period-n*tick) <= 1e-9*period
}

// DecodeFleet reads one standalone Fleet block from r: JSON with // line
// comments, unknown fields rejected, trailing data rejected, the block
// validated (filesystem-free checks only). This is exactly the scenario
// schema's "fleet" object, liftable into any scenario.
func DecodeFleet(r io.Reader) (*Fleet, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("fleet: reading: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(stripComments(src)))
	dec.DisallowUnknownFields()
	var f Fleet
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("fleet: decoding: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("fleet: trailing data after the fleet object")
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// LoadFleet reads a standalone fleet file (see DecodeFleet).
func LoadFleet(path string) (*Fleet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: opening %s: %w", path, err)
	}
	defer f.Close()
	fl, err := DecodeFleet(f)
	if err != nil {
		return nil, fmt.Errorf("fleet %s: %w", path, err)
	}
	return fl, nil
}
