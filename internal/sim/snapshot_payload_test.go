package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"densim/internal/units"
)

// TestSnapshotPayloadPinned pins the SHA-256 of the full Snapshot bytes for
// three captures that between them reach every payload field: the SUT under
// CP mid-warmup; the chaos fault timeline at 0.25 s (socket 7 dead, socket
// 3's throttle window open, one fan failed, the ramp finished); and an
// RNG-carrying policy in overload, so the queue and the scheduler stream are
// both in the payload. Warm-start caches on disk hold these bytes, so any
// change to the payload layout, field order or encoding fails here; a
// deliberate one bumps snapshotVersion and updates the literals.
func TestSnapshotPayloadPinned(t *testing.T) {
	overload := snapConfig(t, "A-Random", EngineConfig{})
	overload.Load = 1.6
	cases := []struct {
		name  string
		cfg   Config
		at    units.Seconds
		check func(s *Simulator) bool
		want  string
	}{
		{"sut-cp-warmup", snapConfig(t, "CP", EngineConfig{}), 0.05, func(s *Simulator) bool { return s.busyCount > 0 },
			"89d339a5aa5c4a459e1c027d1182ff113d21d956d01f207247f800b2b10016bb"},
		{"chaos", faultConfig(t, "CP", EngineConfig{}, nil), 0.25, func(s *Simulator) bool {
			return s.flt.dead[7] && s.flt.capped[3] && s.flt.working == s.flt.spec.FanCount-1
		}, "d4347ab009d7d97b96b322f9493f54e27e83b60e8f5775d99dfa2e8420945a53"},
		{"a-random-queued", overload, 0.2, func(s *Simulator) bool { return s.queue.Len() > 0 },
			"1b78076ca0387881ce2dcb2db8b3e8486aa0b20b6ebd610d44de83816c2fdba8"},
	}
	for _, c := range cases {
		s, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.RunTo(c.at)
		if !c.check(s) {
			t.Fatalf("%s: the capture at %v does not reach the state it is meant to pin", c.name, c.at)
		}
		data, err := s.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", c.name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256(Snapshot) = %s, want %s", c.name, got, c.want)
		}
	}
}

// captureHeaderLen is the byte length of a capture's header: magic,
// version, config signature and payload length. The forgery tests below
// spell the format out themselves (here and in le) rather than reuse the
// codec they are testing.
const captureHeaderLen = 4 + 4 + 32 + 8

// splitCapture splits a capture into its header and its payload.
func splitCapture(data []byte) (header, payload []byte) {
	return data[:captureHeaderLen], data[captureHeaderLen : len(data)-sha256.Size]
}

// reseal seals payload under a genuine capture's header, recomputing the
// payload length and the trailing digest, so that what the payload says is
// judged by the decoder rather than by the digest.
func reseal(header, payload []byte) []byte {
	out := append(append([]byte(nil), header[:captureHeaderLen]...), payload...)
	binary.LittleEndian.PutUint64(out[captureHeaderLen-8:], uint64(len(payload)))
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// le encodes little-endian words: uint32, uint64, int (as 8 bytes) and
// float64 values, the building blocks of a payload field.
func le(vs ...any) []byte {
	var b []byte
	for _, v := range vs {
		switch v := v.(type) {
		case uint32:
			b = binary.LittleEndian.AppendUint32(b, v)
		case uint64:
			b = binary.LittleEndian.AppendUint64(b, v)
		case int:
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		case float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		default:
			panic(fmt.Sprintf("le: %T", v))
		}
	}
	return b
}

// locate returns the offset of needle in payload, which must hold it once.
func locate(t *testing.T, payload, needle []byte) int {
	t.Helper()
	if n := bytes.Count(payload, needle); n != 1 {
		t.Fatalf("field pattern found %d times in the payload, want once", n)
	}
	return bytes.Index(payload, needle)
}

// forgery is a payload edit: put writes word at offset at.
type forgery struct {
	name string
	at   int
	word []byte
}

// expectRejected restores each forged payload into a simulator mid-run and
// requires a rejection that leaves the simulator's Snapshot bytes as they
// were, without a panic and without allocating more than maxAlloc bytes.
func expectRejected(t *testing.T, cfg func() Config, header, payload []byte, maxAlloc uint64, forgeries []forgery) {
	t.Helper()
	for _, fg := range forgeries {
		forged := append([]byte(nil), payload...)
		copy(forged[fg.at:], fg.word)
		s, err := New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		s.RunTo(0.05)
		before, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		panicked := false
		err = func() error {
			defer func() {
				if p := recover(); p != nil {
					panicked = true
					t.Errorf("%s: Restore panicked: %v", fg.name, p)
				}
			}()
			return s.Restore(reseal(header, forged))
		}()
		runtime.ReadMemStats(&m1)
		if panicked {
			continue
		}
		if err == nil {
			t.Errorf("%s: forged payload accepted", fg.name)
			continue
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > maxAlloc {
			t.Errorf("%s: rejecting the payload allocated %d bytes, want <= %d", fg.name, grew, maxAlloc)
		}
		if after, _ := s.Snapshot(); !bytes.Equal(before, after) {
			t.Errorf("%s: rejected Restore changed the simulator's state", fg.name)
		}
	}
}

// TestSnapshotRejectsForgedZones pins that a digest-valid payload whose
// collector zone tables name a zone outside [1, Depth], or repeat one, is
// rejected without touching the simulator. A zone of -1 used to panic in
// Collector.SetState after the clock, sockets and queue were committed; 0,
// Depth+1 and duplicates were accepted.
func TestSnapshotRejectsForgedZones(t *testing.T) {
	cfg := func() Config { return snapConfig(t, "CP", EngineConfig{}) }
	s, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(0.3)
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	header, payload := splitCapture(data)
	st := s.col.State()
	if len(st.ZoneWork) < 3 || len(st.ZoneFreq) < 2 {
		t.Fatalf("capture has %d work and %d frequency zones, want at least 3 and 2", len(st.ZoneWork), len(st.ZoneFreq))
	}
	work := le(uint32(len(st.ZoneWork)))
	for _, z := range st.ZoneWork {
		work = append(work, le(z.Zone, z.Value)...)
	}
	freq := le(uint32(len(st.ZoneFreq)))
	for _, z := range st.ZoneFreq {
		freq = append(freq, le(z.Zone, z.W.WSum, z.W.Mean, z.W.M2)...)
	}
	w, f := locate(t, payload, work)+4, locate(t, payload, freq)+4
	last := len(st.ZoneWork) - 1
	depth := s.srv.Depth
	expectRejected(t, cfg, header, payload, 1<<20, []forgery{
		{"work zone -1", w, le(-1)},
		{"work zone 0", w, le(0)},
		{"work zone depth+1", w + 16*last, le(depth + 1)},
		{"work zone 1<<40", w + 16*last, le(1 << 40)},
		{"duplicate work zone", w + 16, le(st.ZoneWork[0].Zone)},
		{"descending work zones", w + 32, le(st.ZoneWork[0].Zone)},
		{"freq zone -1", f, le(-1)},
		{"freq zone depth+1", f + 32*(len(st.ZoneFreq)-1), le(depth + 1)},
		{"duplicate freq zone", f + 32, le(st.ZoneFreq[0].Zone)},
	})
}

// TestSnapshotBoundsDecodedCounts pins that a decoded count is checked
// against the bytes left before anything is allocated for it: a forged
// queue length of 1<<24 used to allocate 128 MB, and a zone-table count of
// 1<<20 16 MB, before the truncation was noticed.
func TestSnapshotBoundsDecodedCounts(t *testing.T) {
	cfg := func() Config { return snapConfig(t, "CP", EngineConfig{}) }
	s, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(0.3)
	if s.queue.Len() != 0 {
		t.Fatalf("capture has %d queued jobs, want none", s.queue.Len())
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	header, payload := splitCapture(data)
	srcRNG, srcNext := s.source.(sourceSnapshotter).SnapshotState()
	q := locate(t, payload, le(uint64(0), srcRNG, float64(srcNext)))
	st := s.col.State()
	work := le(uint32(len(st.ZoneWork)))
	for _, z := range st.ZoneWork {
		work = append(work, le(z.Zone, z.Value)...)
	}
	w := locate(t, payload, work)
	f := w + len(work) + 3*24 // the frequency table follows the region welfords
	expectRejected(t, cfg, header, payload, 1<<20, []forgery{
		{"queue 1<<24", q, le(1 << 24)},
		{"queue -1", q, le(-1)},
		{"zone-work 1<<20", w, le(uint32(1 << 20))},
		{"zone-freq 1<<20", f, le(uint32(1 << 20))},
	})
}

// TestSnapshotRejectsForgedFaultRuntime pins the fault block's range checks:
// a working-fan count outside [1, FanCount], and a flow factor that would
// leave the rebuilt airflow model without a positive finite lane flow (a
// zero factor used to panic in applyFlowPhysics).
func TestSnapshotRejectsForgedFaultRuntime(t *testing.T) {
	cfg := func() Config { return faultConfig(t, "CP", EngineConfig{}, nil) }
	s, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(0.25)
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	header, payload := splitCapture(data)
	fl := s.flt
	at := locate(t, payload, le(fl.cursor, fl.working, fl.derate, fl.flowFactor, float64(fl.fanPowerW)))
	expectRejected(t, cfg, header, payload, 1<<20, []forgery{
		{"working 0", at + 8, le(0)},
		{"working FanCount+1", at + 8, le(fl.spec.FanCount + 1)},
		{"cursor past the timeline", at, le(len(fl.steps) + 1)},
		{"flow factor 0", at + 24, le(0.0)},
		{"flow factor -1", at + 24, le(-1.0)},
		{"flow factor NaN", at + 24, le(math.NaN())},
		{"flow factor +Inf", at + 24, le(math.Inf(1))},
	})
}

// socketFields returns the offset of socket i's nine-float record (freq,
// amb, chip, hist, util, pewma, powers, lastUpdate, doneAt) in payload.
func socketFields(t *testing.T, s *Simulator, payload []byte, i int) int {
	t.Helper()
	st := s.sockets[i]
	return locate(t, payload, le(float64(s.mhz(i)), float64(s.amb[i]), float64(s.chip[i]), float64(s.hist[i]),
		s.util[i], float64(s.pewma[i]), float64(s.powers[i]), float64(st.lastUpdate), float64(st.doneAt)))
}

// floatCapture runs the CP snapshot configuration to 0.3 s and returns the
// simulator with its capture split into header and payload, plus one busy
// and one idle socket.
func floatCapture(t *testing.T) (s *Simulator, header, payload []byte, busy, idle int) {
	t.Helper()
	s, err := New(snapConfig(t, "CP", EngineConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(0.3)
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	header, payload = splitCapture(data)
	busy, idle = -1, -1
	for i := range s.sockets {
		if s.jobs[i] != nil && busy < 0 {
			busy = i
		}
		if s.jobs[i] == nil && idle < 0 {
			idle = i
		}
	}
	if busy < 0 || idle < 0 {
		t.Fatalf("capture has busy socket %d and idle socket %d, want one of each", busy, idle)
	}
	return s, header, payload, busy, idle
}

// TestSnapshotRejectsForgedClock pins that the clock and the next migration
// instant must be finite and non-negative. A clock resealed to -1e300 used
// to be accepted, and Finish then never returned: each tick's now += dt is
// absorbed at that magnitude.
func TestSnapshotRejectsForgedClock(t *testing.T) {
	_, header, payload, _, _ := floatCapture(t)
	const now, nextMigration = 0, 32 // payload offsets: the clock leads
	expectRejected(t, func() Config { return snapConfig(t, "CP", EngineConfig{}) }, header, payload, 1<<20, []forgery{
		{"clock -1e300", now, le(-1e300)},
		{"clock -1", now, le(-1.0)},
		{"clock NaN", now, le(math.NaN())},
		{"clock +Inf", now, le(math.Inf(1))},
		{"next migration -1", nextMigration, le(-1.0)},
		{"next migration NaN", nextMigration, le(math.NaN())},
		{"next migration +Inf", nextMigration, le(math.Inf(1))},
	})
}

// TestSnapshotRejectsForgedAccounting pins the per-socket accounting
// instants: lastUpdate must be finite and no later than the clock, a busy
// socket cannot complete before it, and an idle socket never completes.
func TestSnapshotRejectsForgedAccounting(t *testing.T) {
	s, header, payload, busy, idle := floatCapture(t)
	b, i := socketFields(t, s, payload, busy), socketFields(t, s, payload, idle)
	last := float64(s.sockets[busy].lastUpdate)
	expectRejected(t, func() Config { return snapConfig(t, "CP", EngineConfig{}) }, header, payload, 1<<20, []forgery{
		{"lastUpdate after the clock", b + 56, le(float64(s.now) + 1)},
		{"lastUpdate NaN", b + 56, le(math.NaN())},
		{"lastUpdate -Inf", i + 56, le(math.Inf(-1))},
		{"busy doneAt before lastUpdate", b + 64, le(last - 1e-3)},
		{"busy doneAt NaN", b + 64, le(math.NaN())},
		{"idle doneAt finite", i + 64, le(float64(s.now) + 1)},
		{"idle doneAt NaN", i + 64, le(math.NaN())},
	})
}

// TestSnapshotRejectsForgedFrequency pins that a busy socket runs at a
// ladder point and an idle one at zero. A busy socket at frequency 0 used
// to be accepted and then panicked in RelPerf on the first tick.
func TestSnapshotRejectsForgedFrequency(t *testing.T) {
	s, header, payload, busy, idle := floatCapture(t)
	b, i := socketFields(t, s, payload, busy), socketFields(t, s, payload, idle)
	expectRejected(t, func() Config { return snapConfig(t, "CP", EngineConfig{}) }, header, payload, 1<<20, []forgery{
		{"busy at 0 MHz", b, le(0.0)},
		{"busy at 1234 MHz", b, le(1234.0)},
		{"busy at NaN", b, le(math.NaN())},
		{"idle at 1100 MHz", i, le(1100.0)},
	})
}

// TestSnapshotRejectsForgedBenchmark pins that every job's benchmark, running
// or queued, lies in the model's domain. A running job's 90C power of NaN
// used to be accepted and spread NaN through the power and ambient fields,
// a frequency sensitivity of NaN left a busy socket completing at NaN in
// the completion heap, and a sensitivity of -5 was accepted silently.
func TestSnapshotRejectsForgedBenchmark(t *testing.T) {
	s, header, payload, busy, _ := floatCapture(t)
	// The benchmark's four floats precede the job's five and the socket's
	// nine: mean duration, 90C power, frequency sensitivity, socket TDP.
	b := socketFields(t, s, payload, busy) - 9*8
	expectRejected(t, func() Config { return snapConfig(t, "CP", EngineConfig{}) }, header, payload, 1<<20, []forgery{
		{"running mean duration -1", b, le(-1.0)},
		{"running mean duration NaN", b, le(math.NaN())},
		{"running power NaN", b + 8, le(math.NaN())},
		{"running power +Inf", b + 8, le(math.Inf(1))},
		{"running power below the leakage", b + 8, le(1.0)},
		{"running sensitivity NaN", b + 16, le(math.NaN())},
		{"running sensitivity -5", b + 16, le(-5.0)},
		{"running sensitivity 1.5", b + 16, le(1.5)},
		{"running socket TDP -1", b + 24, le(-1.0)},
		{"running socket TDP +Inf", b + 24, le(math.Inf(1))},
	})

	overload := func() Config {
		cfg := snapConfig(t, "A-Random", EngineConfig{})
		cfg.Load = 1.6
		return cfg
	}
	s, err := New(overload())
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(0.2)
	if s.queue.Len() == 0 {
		t.Fatal("capture has no queued job")
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	header, payload = splitCapture(data)
	j := s.queue.At(0)
	q := locate(t, payload, le(float64(j.Benchmark.MeanDuration), float64(j.Benchmark.PowerAt90C),
		j.Benchmark.FreqSensitivity, float64(j.Benchmark.SocketTDP), float64(j.Arrival)))
	expectRejected(t, overload, header, payload, 1<<20, []forgery{
		{"queued mean duration +Inf", q, le(math.Inf(1))},
		{"queued power NaN", q + 8, le(math.NaN())},
		{"queued sensitivity -5", q + 16, le(-5.0)},
	})
}

// TestSnapshotRejectsForgedRamp pins the inlet ramp's times: its start and
// length must be finite and its length non-negative.
func TestSnapshotRejectsForgedRamp(t *testing.T) {
	cfg := func() Config { return faultConfig(t, "CP", EngineConfig{}, nil) }
	s, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(0.25)
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	header, payload := splitCapture(data)
	fl := s.flt
	at := locate(t, payload, le(fl.cursor, fl.working, fl.derate, fl.flowFactor, float64(fl.fanPowerW)))
	start := at + 8*7 + 1 // past the fault-runtime words above, the fan energy, the inlet and the ramp flag
	if got := math.Float64frombits(binary.LittleEndian.Uint64(payload[start:])); got != float64(fl.rampStart) {
		t.Fatalf("ramp start offset reads %v, want %v", got, fl.rampStart)
	}
	expectRejected(t, cfg, header, payload, 1<<20, []forgery{
		{"ramp start NaN", start, le(math.NaN())},
		{"ramp start -Inf", start, le(math.Inf(-1))},
		{"ramp length -1", start + 8, le(-1.0)},
		{"ramp length NaN", start + 8, le(math.NaN())},
		{"ramp length +Inf", start + 8, le(math.Inf(1))},
	})
}
