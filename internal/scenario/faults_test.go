package scenario

import (
	"reflect"
	"strings"
	"testing"

	"densim/internal/chipmodel"
	"densim/internal/fault"
)

// TestDecodeFaultsAccepts pins the happy path: a commented faults file
// decodes, converts to a fault.Spec, and round-trips through its own JSON.
func TestDecodeFaultsAccepts(t *testing.T) {
	src := `{
  // one of four fans dies six seconds in
  "fan_count": 4,
  "events": [
    {"at_s": 2, "kind": "fan-degrade", "flow_factor": 0.9},
    {"at_s": 6, "kind": "fan-fail", "fans": 1},
    {"at_s": 8, "kind": "inlet-ramp", "delta_c": 5, "ramp_s": 2},
    {"at_s": 9, "kind": "socket-death", "socket": 42},
    {"at_s": 10, "kind": "throttle", "socket": 3, "duration_s": 1},
    {"at_s": 12, "kind": "fan-recover"}
  ]
}`
	f, err := DecodeFaults(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Events) != 6 || spec.FanCount != 4 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Events[1].Kind != fault.KindFanFail || spec.Events[1].Fans != 1 {
		t.Errorf("event 1 = %+v", spec.Events[1])
	}
	if spec.Events[2].DeltaC != 5 || spec.Events[2].Ramp != 2 {
		t.Errorf("event 2 = %+v", spec.Events[2])
	}
}

// TestDecodeFaultsRejects pins the fail-loudly contract of the standalone
// faults format.
func TestDecodeFaultsRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"fan_count": 4, "warp": 9}`,
		"unknown kind":      `{"events": [{"at_s": 1, "kind": "meteor-strike"}]}`,
		"trailing data":     `{"fan_count": 4} {"fan_count": 2}`,
		"unsorted events":   `{"fan_count": 4, "events": [{"at_s": 2, "kind": "fan-fail", "fans": 1}, {"at_s": 1, "kind": "fan-recover"}]}`,
		"fan without bank":  `{"events": [{"at_s": 1, "kind": "fan-fail", "fans": 1}]}`,
		"dead field set":    `{"events": [{"at_s": 1, "kind": "socket-death", "socket": 2, "fans": 1}]}`,
		"all fans fail":     `{"fan_count": 2, "events": [{"at_s": 1, "kind": "fan-fail", "fans": 2}]}`,
		"negative time":     `{"fan_count": 4, "events": [{"at_s": -1, "kind": "fan-recover"}]}`,
		"compile-only kind": `{"events": [{"at_s": 1, "kind": "throttle-end"}]}`,
		"not json":          `fan_count: 4`,
	}
	for name, src := range cases {
		if _, err := DecodeFaults(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestScenarioFaultsAndSKUs pins the full declarative path: a scenario file
// with faults and cartridge SKU overrides decodes, builds a server with the
// parts installed at both of each cartridge's depth positions, and assembles
// a sim.Config carrying the compiled-to-be fault spec.
func TestScenarioFaultsAndSKUs(t *testing.T) {
	src := `{
  "version": 1,
  "name": "chaos",
  "topology": {"rows": 4, "lanes": 2, "depth": 6},
  "faults": {
    "fan_count": 4,
    "events": [{"at_s": 6, "kind": "fan-fail", "fans": 1}]
  },
  "skus": [
    {"row": 1, "lane": 0, "cartridge": 2, "tdp_w": 18, "fmax_mhz": 1500},
    {"row": 3, "lane": 1, "cartridge": 0, "tdp_w": 30}
  ]
}`
	sc, err := Decode(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sc.Server()
	if err != nil {
		t.Fatal(err)
	}
	if !srv.HasSKUs() {
		t.Fatal("no SKUs installed")
	}
	want := chipmodel.SKU{TDP: 18, FMax: 1500}
	for _, pos := range []int{4, 5} { // cartridge 2 covers depth 4 and 5
		if got := srv.SKU(srv.SocketAt(1, 0, pos).ID); got != want {
			t.Errorf("sku at (1,0,%d) = %+v, want %+v", pos, got, want)
		}
	}
	if got := srv.SKU(srv.SocketAt(3, 1, 0).ID); got.TDP != 30 || got.FMax != 0 {
		t.Errorf("sku at (3,1,0) = %+v", got)
	}
	if got := srv.SKU(srv.SocketAt(0, 0, 0).ID); !got.IsZero() {
		t.Errorf("default socket carries %+v", got)
	}
	cfg, err := sc.Config(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults == nil || cfg.Faults.FanCount != 4 || len(cfg.Faults.Events) != 1 {
		t.Errorf("cfg.Faults = %+v", cfg.Faults)
	}
}

// TestScenarioSKUValidation pins both validation layers: nonsense overrides
// fail Validate with no topology, and an override outside the built grid
// fails at Server.
func TestScenarioSKUValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Version:  CurrentVersion,
			Name:     "t",
			Topology: Topology{Rows: 2, Lanes: 2, Depth: 2},
		}
	}
	declarative := []SKUOverride{
		{Row: -1, Lane: 0, Cartridge: 0, TDPW: 20},
		{Row: 0, Lane: 0, Cartridge: 0}, // neither field set
		{Row: 0, Lane: 0, Cartridge: 0, TDPW: -5},
		{Row: 0, Lane: 0, Cartridge: 0, FMaxMHz: -1},
		{Row: 0, Lane: 0, Cartridge: 0, FMaxMHz: 1600}, // between P-states
	}
	for i, o := range declarative {
		sc := base()
		sc.SKUs = []SKUOverride{o}
		if err := sc.Validate(); err == nil {
			t.Errorf("declarative case %d accepted: %+v", i, o)
		}
	}
	topological := []SKUOverride{
		{Row: 2, Lane: 0, Cartridge: 0, TDPW: 20}, // row off grid
		{Row: 0, Lane: 5, Cartridge: 0, TDPW: 20}, // lane off grid
		{Row: 0, Lane: 0, Cartridge: 1, TDPW: 20}, // cartridge 1 starts at depth 2
	}
	for i, o := range topological {
		sc := base()
		sc.SKUs = []SKUOverride{o}
		if err := sc.Validate(); err != nil {
			t.Errorf("topological case %d rejected early: %v", i, err)
			continue
		}
		if _, err := sc.Server(); err == nil {
			t.Errorf("topological case %d accepted by Server: %+v", i, o)
		}
	}
	// Odd depth: the last cartridge has one socket; clipping must hold.
	sc := base()
	sc.Topology.Depth = 3
	sc.SKUs = []SKUOverride{{Row: 0, Lane: 0, Cartridge: 1, TDPW: 20}}
	srv, err := sc.Server()
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.SKU(srv.SocketAt(0, 0, 2).ID); got.TDP != 20 {
		t.Errorf("clipped cartridge sku = %+v", got)
	}
}

// TestFaultsEncodeRoundTrip pins Decode(Encode) identity for a scenario
// carrying both new blocks.
func TestFaultsEncodeRoundTrip(t *testing.T) {
	sc, err := Preset("sut-180-fanfail")
	if err != nil {
		t.Fatal(err)
	}
	sc.SKUs = []SKUOverride{{Row: 1, Lane: 1, Cartridge: 1, TDPW: 18}}
	var b strings.Builder
	if err := sc.Encode(&b); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, sc)
	}
}
