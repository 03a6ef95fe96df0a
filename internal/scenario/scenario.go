// Package scenario is the declarative run-specification layer: a versioned,
// serializable description of one simulation study — topology, airflow,
// chip/heat-sink selection, workload, scheduler, seeds, windows, and
// harness toggles — that builds a sim.Config without any Go code. It makes
// socket density a first-class parameter: the paper's 180-socket SUT, its
// half- and double-density variants, and a conventional uncoupled chassis
// are all shipped presets (see presets.go), and arbitrary densities are one
// scenario file away.
//
// The on-disk format is JSON with // line comments (stripped before
// decoding) so example files can document themselves. Unknown fields are
// rejected, encoding round-trips (decode → encode → decode is the identity
// on the struct), and the version field gates future format changes.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"densim/internal/sim"
)

// CurrentVersion is the scenario format version this package reads and
// writes. Loading a file with a different version fails loudly rather than
// misinterpreting fields.
const CurrentVersion = 1

// Scenario is one complete, declarative run specification. The zero value
// of most fields means "use the model's default", mirroring sim.Config;
// Validate reports the combinations that make no sense.
type Scenario struct {
	// Version is the format version (CurrentVersion).
	Version int `json:"version"`
	// Name labels the scenario in reports and CSV outputs.
	Name string `json:"name"`
	// Notes is free-form documentation carried with the scenario.
	Notes string `json:"notes,omitempty"`

	Topology  Topology  `json:"topology"`
	Airflow   Airflow   `json:"airflow,omitempty"`
	Chip      Chip      `json:"chip,omitempty"`
	Workload  Workload  `json:"workload,omitempty"`
	Scheduler Scheduler `json:"scheduler,omitempty"`
	Run       Run       `json:"run,omitempty"`
	// Engine selects the tick-loop execution engine. Both engines produce
	// bit-identical results (the equivalence suite enforces it); serial is
	// the slower reference the event engine is checked against.
	Engine Engine `json:"engine,omitempty"`
	// Snapshot wires run snapshots (sim.Snapshot/Restore) into the run:
	// save the state at the end of warmup, or start from a saved capture
	// instead of simulating the warmup again.
	Snapshot Snapshot `json:"snapshot,omitempty"`

	// Faults declares a deterministic fault-injection timeline (fan
	// degradation/failure, inlet transients, socket death, emergency
	// throttles) the engine applies at tick boundaries. Nil means no fault
	// machinery at all — the bit-exact unfaulted fast paths stay engaged.
	Faults *Faults `json:"faults,omitempty"`
	// SKUs installs non-default part variants (mixed TDP / capped DVFS
	// ladders) at cartridge granularity, making the server heterogeneous.
	SKUs []SKUOverride `json:"skus,omitempty"`
	// Fleet scales the scenario out to racks x chassis of independent
	// servers behind a fleet-level dispatcher (internal/fleet). The rest of
	// the scenario is the template: its workload and windows define the
	// shared arrival stream, and chassis entries default to simulating it.
	// Single-chassis tools ignore the block and run the template alone.
	Fleet *Fleet `json:"fleet,omitempty"`

	// Checks asks runners to attach the runtime invariant harness
	// (internal/check) to every run of this scenario.
	Checks bool `json:"checks,omitempty"`
	// Telemetry asks runners to attach the observability layer
	// (internal/telemetry) to every run of this scenario.
	Telemetry bool `json:"telemetry,omitempty"`
}

// Topology selects the socket arrangement: either a named special topology
// or a homogeneous density-optimized grid of rows x lanes x depth sockets.
// Depth — sockets per lane along the airflow — is the paper's degree of
// coupling (Table I) and the knob density sweeps turn.
type Topology struct {
	// Preset names a special topology: "sut" (the 180-socket M700 SUT),
	// "coupled-pair", or "uncoupled-pair" (the Figure 3 pairs). Empty means
	// build a DenseSystem grid from the dimensions below.
	Preset string `json:"preset,omitempty"`
	// Rows is the number of cartridge rows (vertical stack positions).
	Rows int `json:"rows,omitempty"`
	// Lanes is the number of independent airflow lanes per row.
	Lanes int `json:"lanes,omitempty"`
	// Depth is the number of sockets per lane along the airflow — the
	// degree of coupling.
	Depth int `json:"depth,omitempty"`
}

// Airflow sets the advection-network parameters. Zero values keep the
// calibrated defaults of airflow.DefaultParams (Figure 2 calibration).
type Airflow struct {
	// InletC is the server inlet temperature in Celsius (default 18).
	InletC float64 `json:"inlet_c,omitempty"`
	// FlowPerLaneCFM is the fan-rated volumetric flow through one socket
	// lane (default 6.35, Table III).
	FlowPerLaneCFM float64 `json:"flow_per_lane_cfm,omitempty"`
	// Concentration is the bulk-to-effective heat capacity rate ratio
	// (default 2.0).
	Concentration float64 `json:"concentration,omitempty"`
	// MixLengthIn is the plume e-folding distance in inches (default 60).
	MixLengthIn float64 `json:"mix_length_in,omitempty"`
	// AuxPerSocketW is the non-SoC board power per socket position in watts
	// (default 0; the SUT presets use 10 for the M700 cartridge node).
	AuxPerSocketW float64 `json:"aux_per_socket_w,omitempty"`
}

// Chip selects the socket part and heat-sink catalog entries.
type Chip struct {
	// TDPW is the per-socket TDP in watts; 0 keeps the X2150's 22 W.
	// Non-default values re-target the workload's power curves through
	// workload.ScaledClassMix.
	TDPW float64 `json:"tdp_w,omitempty"`
	// Sinks picks the heat-sink pattern along each lane: "alternating"
	// (default, the SUT's 18-fin odd / 30-fin even zones), "18fin", or
	// "30fin". Ignored when Topology.Preset names a special topology,
	// which carries its own sinks.
	Sinks string `json:"sinks,omitempty"`
	// DisableBoost removes the opportunistic boost states (the
	// conservative-governor ablation).
	DisableBoost bool `json:"disable_boost,omitempty"`
}

// Workload defines the job stream.
type Workload struct {
	// Class is the benchmark set: "Computation", "GP" (default), or
	// "Storage".
	Class string `json:"class,omitempty"`
	// Load is the target utilization in (0, 1+]; default 0.5.
	Load float64 `json:"load,omitempty"`
	// Trace replays a recorded job trace file (see cmd/tracegen) instead of
	// the live generator. Files ending in .json are read as JSON, anything
	// else as the binary format.
	Trace string `json:"trace,omitempty"`
}

// Scheduler selects the placement policy.
type Scheduler struct {
	// Name is a policy from sched.Names (default "CP").
	Name string `json:"name,omitempty"`
	// Seed feeds stochastic policies' RNG; 0 means use the run seed.
	Seed uint64 `json:"seed,omitempty"`
	// MigrationPeriodS enables the periodic migration pass with this
	// period in seconds (0 disables migration).
	MigrationPeriodS float64 `json:"migration_period_s,omitempty"`
	// MigrationCostS is the work-time penalty per migration in seconds
	// (0 keeps the 0.5 ms default).
	MigrationCostS float64 `json:"migration_cost_s,omitempty"`
}

// Run sets seeds, windows, and thermal time constants.
type Run struct {
	// Seeds lists the seeds multi-seed runners average over; default [1].
	// Single-run tools use the first entry.
	Seeds []uint64 `json:"seeds,omitempty"`
	// DurationS is the arrival horizon in simulated seconds (default 10).
	DurationS float64 `json:"duration_s,omitempty"`
	// WarmupS discards metrics before this time; 0 means 30% of the
	// duration.
	WarmupS float64 `json:"warmup_s,omitempty"`
	// TickPeriodS is the power-manager period (default 0.001, Table III).
	TickPeriodS float64 `json:"tick_period_s,omitempty"`
	// SinkTauS overrides the 30 s socket thermal time constant.
	SinkTauS float64 `json:"sink_tau_s,omitempty"`
	// ChipTauS overrides the 5 ms chip thermal time constant.
	ChipTauS float64 `json:"chip_tau_s,omitempty"`
	// DrainLimitS caps the post-horizon drain phase (0 = sim default).
	DrainLimitS float64 `json:"drain_limit_s,omitempty"`
}

// Engine selects how a run's tick loop executes (sim.EngineConfig).
type Engine struct {
	// Mode is "event" (default when empty) or "serial", the pristine
	// reference sweep. Both produce bit-identical results; sim.EngineConfig
	// validates the value.
	Mode string `json:"mode,omitempty"`
}

// UnmarshalJSON decodes the engine block strictly and names the surviving
// modes on failure, so a file still carrying the removed workers or stride
// fields points its author at the fix.
func (e *Engine) UnmarshalJSON(b []byte) error {
	type plain Engine
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode((*plain)(e)); err != nil {
		return fmt.Errorf("engine: %w (the block takes only mode: event or serial)", err)
	}
	return nil
}

// Snapshot connects a run to the snapshot format of internal/sim: a
// serialized full-state capture, validated by magic, version, config
// signature, and digest on load (fail closed on any mismatch).
type Snapshot struct {
	// Save writes a snapshot at the end of the warmup window to this file,
	// then continues the run normally. The capture can seed any later run
	// whose configuration matches (horizon length may differ).
	Save string `json:"save,omitempty"`
	// Load restores the run from a snapshot file instead of simulating from
	// the cold start. The file must come from an identically configured run.
	Load string `json:"load,omitempty"`
}

// topologyPresets lists the accepted Topology.Preset names.
var topologyPresets = map[string]bool{
	"sut": true, "coupled-pair": true, "uncoupled-pair": true,
}

// sinkPatterns lists the accepted Chip.Sinks values.
var sinkPatterns = map[string]bool{
	"": true, "alternating": true, "18fin": true, "30fin": true,
}

// Validate checks the scenario for internal consistency. It validates the
// declarative spec only; Config performs the final substrate-level
// validation when the pieces are assembled.
func (s *Scenario) Validate() error {
	if s.Version != CurrentVersion {
		return fmt.Errorf("scenario %q: unsupported version %d (this build reads version %d)", s.Name, s.Version, CurrentVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	t := s.Topology
	if t.Preset != "" {
		if !topologyPresets[t.Preset] {
			return fmt.Errorf("scenario %q: unknown topology preset %q (have sut, coupled-pair, uncoupled-pair)", s.Name, t.Preset)
		}
		if t.Rows != 0 || t.Lanes != 0 || t.Depth != 0 {
			return fmt.Errorf("scenario %q: topology preset %q excludes explicit rows/lanes/depth", s.Name, t.Preset)
		}
	} else {
		if t.Rows <= 0 || t.Lanes <= 0 || t.Depth <= 0 {
			return fmt.Errorf("scenario %q: topology needs positive rows/lanes/depth (or a preset), have %dx%dx%d", s.Name, t.Rows, t.Lanes, t.Depth)
		}
	}
	if !sinkPatterns[s.Chip.Sinks] {
		return fmt.Errorf("scenario %q: unknown sink pattern %q (have alternating, 18fin, 30fin)", s.Name, s.Chip.Sinks)
	}
	if s.Chip.TDPW < 0 {
		return fmt.Errorf("scenario %q: negative TDP %v", s.Name, s.Chip.TDPW)
	}
	if s.Workload.Load < 0 {
		return fmt.Errorf("scenario %q: negative load %v", s.Name, s.Workload.Load)
	}
	if s.Workload.Class != "" {
		if _, err := classByName(s.Workload.Class); err != nil {
			return err
		}
	}
	if a := s.Airflow; a.InletC < 0 || a.FlowPerLaneCFM < 0 || a.Concentration < 0 || a.MixLengthIn < 0 || a.AuxPerSocketW < 0 {
		return fmt.Errorf("scenario %q: negative airflow parameter", s.Name)
	}
	if r := s.Run; r.DurationS < 0 || r.WarmupS < 0 || r.TickPeriodS < 0 || r.SinkTauS < 0 || r.ChipTauS < 0 || r.DrainLimitS < 0 {
		return fmt.Errorf("scenario %q: negative run parameter", s.Name)
	}
	if r := s.Run; r.DurationS > 0 && r.WarmupS >= r.DurationS {
		return fmt.Errorf("scenario %q: warmup %vs outside [0, duration %vs)", s.Name, s.Run.WarmupS, s.Run.DurationS)
	}
	if err := (sim.EngineConfig{Mode: s.Engine.Mode}).Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.Snapshot.Save != "" && s.Snapshot.Load != "" {
		return fmt.Errorf("scenario %q: snapshot save and load are mutually exclusive", s.Name)
	}
	if err := s.validateFaults(); err != nil {
		return err
	}
	return s.validateFleet()
}

// Decode reads one scenario from r: JSON with // line comments, unknown
// fields rejected, version checked, and the result validated.
func Decode(r io.Reader) (*Scenario, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(stripComments(src)))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decoding: %w", err)
	}
	// Trailing garbage after the closing brace is a malformed file, not
	// an extension point.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after the scenario object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load resolves a scenario reference: "preset:NAME" (or a bare preset name)
// loads a shipped preset, anything else is read as a file path. This is the
// single entry point behind every cmd's -scenario flag.
func Load(ref string) (*Scenario, error) {
	if name, ok := strings.CutPrefix(ref, "preset:"); ok {
		return Preset(name)
	}
	if isPreset(ref) {
		return Preset(ref)
	}
	f, err := os.Open(ref)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("scenario: %q is neither a shipped preset (%s) nor a readable file", ref, strings.Join(Names(), ", "))
		}
		return nil, fmt.Errorf("scenario: opening %s: %w", ref, err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", ref, err)
	}
	return s, nil
}

// Encode writes the scenario as indented JSON (comment-free: comments are a
// hand-authoring convenience, not part of the data model). Decode(Encode(s))
// reproduces s exactly.
func (s *Scenario) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: encoding: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// stripComments removes // line comments from JSONC source, preserving //
// inside strings. Offsets shift but line structure is kept, so decoder error
// positions stay meaningful.
func stripComments(src []byte) []byte {
	out := make([]byte, 0, len(src))
	inString := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if inString {
			out = append(out, c)
			switch c {
			case '\\':
				if i+1 < len(src) {
					i++
					out = append(out, src[i])
				}
			case '"':
				inString = false
			}
			continue
		}
		switch {
		case c == '"':
			inString = true
			out = append(out, c)
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			if i < len(src) {
				out = append(out, '\n')
			}
		default:
			out = append(out, c)
		}
	}
	return out
}
