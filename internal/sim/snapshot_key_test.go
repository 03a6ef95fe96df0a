package sim

import (
	"testing"

	"densim/internal/geometry"
)

// TestSnapshotKeyPinned pins the hex SnapshotKey of three fixed configs: the
// SUT under CP, the SUT with the chaos fault timeline, and a mixed-SKU
// server. The key names warm-start cache files on disk (WarmDir), so a
// change to cfgSig's byte layout, or to any default it hashes, silently
// orphans every existing capture. A deliberate layout change updates these
// literals and says so; an accidental one fails here.
func TestSnapshotKeyPinned(t *testing.T) {
	mixed := snapConfig(t, "CP", EngineConfig{})
	mixed.Server = faultedServer()
	faulted := snapConfig(t, "CP", EngineConfig{})
	faulted.Server = geometry.SUT()
	faulted.Faults = chaosSpec()
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"sut-cp", snapConfig(t, "CP", EngineConfig{}), "f9f57bed95231070fc06db9c7852e415191a17502e80253ce48ab8e207da709a"},
		{"faults", faulted, "cbd85341b938fd1f941e5a25793e8b6c46c950d50ef72072cf5f767fa99c5930"},
		{"mixed-sku", mixed, "536737139bc60cb2113fc81aa9bd67741bac207642a75969e1430cd87abe6a60"},
	}
	for _, c := range cases {
		s, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.SnapshotKey()
		if err != nil {
			t.Fatalf("%s: SnapshotKey: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: SnapshotKey = %s, want %s", c.name, got, c.want)
		}
	}
}
