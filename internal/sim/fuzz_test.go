package sim

import (
	"bytes"
	"testing"

	"densim/internal/units"
	"densim/internal/workload"
)

// FuzzSnapshotRestore throws arbitrary bytes at the snapshot decoder.
// Restore's contract is to fail closed: any input that is not a complete,
// digest-valid capture for this exact configuration must return an error
// without touching the simulator — and nothing may panic, however the header,
// lengths, or payload are mangled. When an input does restore (in practice
// only the genuine capture survives the SHA-256), the resumed run must
// complete cleanly.
func FuzzSnapshotRestore(f *testing.F) {
	capture := func() []byte {
		s, err := New(smallConfig("CF", 0.5, workload.Computation))
		if err != nil {
			f.Fatal(err)
		}
		s.RunTo(0.5)
		data, err := s.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}()
	f.Add(capture)
	f.Add(capture[:len(capture)/2])
	f.Add(capture[:47]) // header only: magic+version+cfgSig+payloadLen
	flipped := append([]byte(nil), capture...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), capture...), 0xAA)) // trailing garbage
	f.Add([]byte{})
	f.Add([]byte("DSNP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(smallConfig("CF", 0.5, workload.Computation))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(data); err != nil {
			return // rejected, as almost everything must be
		}
		s.Finish()
	})
}

// FuzzSnapshotPayload fuzzes the payload decoder itself. Each input is a
// payload, sealed under a genuine capture's header with a recomputed length
// and digest, for an overloaded run with the chaos fault timeline and an
// RNG-carrying policy — so every payload section is live. It restores into
// a simulator holding a mid-run state and asserts that Restore never panics,
// that a rejected payload leaves the simulator's Snapshot bytes unchanged,
// and that an accepted one re-encodes to exactly the sealed bytes.
func FuzzSnapshotPayload(f *testing.F) {
	cfg := func(tb testing.TB) Config {
		c := faultConfig(tb, "A-Random", EngineConfig{}, nil)
		c.Load = 1.6
		return c
	}
	capture := func(at units.Seconds) []byte {
		s, err := New(cfg(f))
		if err != nil {
			f.Fatal(err)
		}
		s.RunTo(at)
		data, err := s.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	mid := capture(0.25)
	header, _ := splitCapture(mid)
	for _, at := range []units.Seconds{0, 0.05, 0.25, 0.35} {
		_, payload := splitCapture(capture(at))
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := New(cfg(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(mid); err != nil {
			t.Fatal(err)
		}
		before, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sealed := reseal(header, payload)
		err = s.Restore(sealed)
		after, serr := s.Snapshot()
		if serr != nil {
			t.Fatal(serr)
		}
		if err != nil && !bytes.Equal(before, after) {
			t.Fatalf("rejected Restore (%v) changed the simulator's state", err)
		}
		if err == nil && !bytes.Equal(after, sealed) {
			t.Fatal("accepted payload does not re-encode to itself")
		}
	})
}
