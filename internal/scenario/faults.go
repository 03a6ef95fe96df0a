package scenario

// Declarative fault timelines and heterogeneous part overrides: the JSONC
// surface over internal/fault and geometry.SetSKU. Both blocks are
// omitempty throughout, so scenarios that use neither encode byte-identically
// to the pre-fault format.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"densim/internal/chipmodel"
	"densim/internal/fault"
	"densim/internal/geometry"
	"densim/internal/units"
)

// Faults declares a deterministic fault-injection timeline plus the chassis
// fan bank the fan events derate (see internal/fault for semantics). Events
// must be time-sorted; each kind reads only its own parameter fields.
type Faults struct {
	// FanCount is the number of chassis fans sharing the airflow duty.
	// Required (> 0) when any fan event appears on the timeline.
	FanCount int `json:"fan_count,omitempty"`
	// FanNominalFrac is the duty fraction at which the full bank delivers
	// the scenario's nominal flow (0 = fault.DefaultFanNominalFrac).
	FanNominalFrac float64 `json:"fan_nominal_frac,omitempty"`
	// Events is the timeline, sorted by at_s.
	Events []FaultEvent `json:"events,omitempty"`
}

// FaultEvent is one timeline entry. Kind selects which parameter fields are
// read; setting a field the kind does not use is a validation error.
type FaultEvent struct {
	// AtS is the injection instant in simulated seconds.
	AtS float64 `json:"at_s"`
	// Kind is one of "fan-degrade", "fan-fail", "fan-recover", "inlet-ramp",
	// "socket-death", or "throttle".
	Kind string `json:"kind"`
	// FlowFactor is fan-degrade's per-fan achievable-flow factor (0, 1].
	FlowFactor float64 `json:"flow_factor,omitempty"`
	// Fans is fan-fail's count of newly failed fans.
	Fans int `json:"fans,omitempty"`
	// DeltaC and RampS parameterize inlet-ramp: the inlet moves by DeltaC
	// linearly over RampS seconds (a step when RampS is 0).
	DeltaC float64 `json:"delta_c,omitempty"`
	RampS  float64 `json:"ramp_s,omitempty"`
	// Socket targets socket-death and throttle.
	Socket int `json:"socket,omitempty"`
	// DurationS is throttle's window length in seconds.
	DurationS float64 `json:"duration_s,omitempty"`
}

// Spec converts the declarative block into the engine's fault.Spec. A nil
// receiver converts to nil (no fault machinery at all).
func (f *Faults) Spec() (*fault.Spec, error) {
	if f == nil {
		return nil, nil
	}
	spec := &fault.Spec{
		FanCount:       f.FanCount,
		FanNominalFrac: f.FanNominalFrac,
		Events:         make([]fault.Event, 0, len(f.Events)),
	}
	for i := range f.Events {
		e := &f.Events[i]
		kind, ok := fault.KindByName(e.Kind)
		if !ok {
			return nil, fmt.Errorf("fault: event %d: unknown kind %q (have fan-degrade, fan-fail, fan-recover, inlet-ramp, socket-death, throttle)", i, e.Kind)
		}
		spec.Events = append(spec.Events, fault.Event{
			At:         units.Seconds(e.AtS),
			Kind:       kind,
			FlowFactor: e.FlowFactor,
			Fans:       e.Fans,
			DeltaC:     units.Celsius(e.DeltaC),
			Ramp:       units.Seconds(e.RampS),
			Socket:     e.Socket,
			Duration:   units.Seconds(e.DurationS),
		})
	}
	return spec, nil
}

// DecodeFaults reads one standalone Faults block from r: JSON with // line
// comments, unknown fields rejected, the timeline validated (topology-free
// bounds only). This is the -faults flag's file format — exactly the
// scenario schema's "faults" object, liftable into any scenario.
func DecodeFaults(r io.Reader) (*Faults, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("faults: reading: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(stripComments(src)))
	dec.DisallowUnknownFields()
	var f Faults
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("faults: decoding: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("faults: trailing data after the faults object")
	}
	spec, err := f.Spec()
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(-1); err != nil {
		return nil, err
	}
	return &f, nil
}

// LoadFaults reads a standalone faults file (see DecodeFaults).
func LoadFaults(path string) (*Faults, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("faults: opening %s: %w", path, err)
	}
	defer f.Close()
	fl, err := DecodeFaults(f)
	if err != nil {
		return nil, fmt.Errorf("faults %s: %w", path, err)
	}
	return fl, nil
}

// SKUOverride installs a non-default part on one cartridge: both sockets a
// cartridge carries along its lane (depth positions 2*cartridge and
// 2*cartridge+1, clipped to the topology's depth) get the same SKU —
// cartridges are the field-replaceable unit, so parts mix at cartridge
// granularity, never within one.
type SKUOverride struct {
	// Row and Lane locate the cartridge's lane in the grid.
	Row  int `json:"row"`
	Lane int `json:"lane"`
	// Cartridge is the cartridge index along the lane (0 = most upstream).
	Cartridge int `json:"cartridge"`
	// TDPW is the part's thermal design power in watts (0 = platform
	// default TDP).
	TDPW float64 `json:"tdp_w,omitempty"`
	// FMaxMHz caps the part's DVFS ladder at one of its P-states (0 = full
	// ladder with boost).
	FMaxMHz float64 `json:"fmax_mhz,omitempty"`
}

// sku converts the override to the chipmodel part descriptor.
func (o *SKUOverride) sku() chipmodel.SKU {
	return chipmodel.SKU{TDP: units.Watts(o.TDPW), FMax: units.MHz(o.FMaxMHz)}
}

// validateFaults checks the declarative fault and SKU blocks without a built
// topology (socket and cartridge bounds are re-checked against the real
// server when it is assembled).
func (s *Scenario) validateFaults() error {
	spec, err := s.Faults.Spec()
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := spec.Validate(-1); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	for i := range s.SKUs {
		o := &s.SKUs[i]
		if o.Row < 0 || o.Lane < 0 || o.Cartridge < 0 {
			return fmt.Errorf("scenario %q: sku override %d: negative row/lane/cartridge", s.Name, i)
		}
		if o.TDPW < 0 || math.IsNaN(o.TDPW) || math.IsInf(o.TDPW, 0) {
			return fmt.Errorf("scenario %q: sku override %d: bad tdp_w %v", s.Name, i, o.TDPW)
		}
		// A cap must be a P-state: the power manager and the schedulers'
		// predictions price a socket's frequency by its ladder index.
		if _, err := chipmodel.FreqIndex(units.MHz(o.FMaxMHz)); o.FMaxMHz != 0 && err != nil {
			return fmt.Errorf("scenario %q: sku override %d: bad fmax_mhz %v (not a P-state)", s.Name, i, o.FMaxMHz)
		}
		if o.TDPW == 0 && o.FMaxMHz == 0 {
			return fmt.Errorf("scenario %q: sku override %d: needs tdp_w and/or fmax_mhz", s.Name, i)
		}
	}
	return nil
}

// applySKUs installs the scenario's part overrides on a built server,
// bounds-checking every override against the real topology.
func (s *Scenario) applySKUs(srv *geometry.Server) error {
	for i := range s.SKUs {
		o := &s.SKUs[i]
		if o.Row >= srv.Rows || o.Lane >= srv.Lanes {
			return fmt.Errorf("scenario %q: sku override %d: row %d lane %d outside %dx%d grid", s.Name, i, o.Row, o.Lane, srv.Rows, srv.Lanes)
		}
		lo := 2 * o.Cartridge
		if lo >= srv.Depth {
			return fmt.Errorf("scenario %q: sku override %d: cartridge %d outside depth %d", s.Name, i, o.Cartridge, srv.Depth)
		}
		for p := lo; p < lo+2 && p < srv.Depth; p++ {
			srv.SetSKU(srv.SocketAt(o.Row, o.Lane, p).ID, o.sku())
		}
	}
	return nil
}
