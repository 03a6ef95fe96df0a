package fleet

// The replay source: each chassis simulation consumes its dispatched share
// of the fleet arrival stream through a job.Source. Replay is the mechanism
// behind the fleet's determinism guarantees — routing happens serially, ahead
// of the simulation that consumes it, so the worker pool's scheduling can
// never reorder what a chassis sees.

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"densim/internal/units"
	"densim/internal/workload"
)

// arrival is one fleet-stream job in compact form: the tuple the live
// generator produced, with the benchmark held as its index into the template
// mix's Benchmarks table. 24 bytes and no pointers, so a whole stream's worth
// costs the garbage collector nothing to scan.
type arrival struct {
	at, nominal units.Seconds
	bench       int32
}

// source feeds one chassis simulation its dispatched share of the fleet
// arrival stream, as a job.Source. The routing pass pushes each window's
// records before any chassis simulates past the window's end, and the
// simulator consumes them in order — it cannot tell whether it is being fed
// one horizon-long window (open loop) or one window per epoch (closed loop).
// While the pushed window is drained Peek reports +Inf, which is correct:
// the executor never advances a chassis past the point its arrivals have
// been routed through. The source also implements the sim package's
// snapshot accessors (the cursor is the whole mutable state — there is no
// RNG) and the source-identity hook, so open-loop chassis warm-start through
// the same WarmDir cache as plain sweeps without two chassis ever sharing a
// cache key by accident.
type source struct {
	benches  []workload.Benchmark // the table arrival.bench indexes
	arrivals []arrival
	next     int
	sig      uint64
	hashed   bool
}

// Peek returns the next arrival instant, or +Inf when the pushed window is
// drained.
func (s *source) Peek() units.Seconds {
	if s.next >= len(s.arrivals) {
		return units.Seconds(math.Inf(1))
	}
	return s.arrivals[s.next].at
}

// Next consumes the next arrival, resolving its benchmark from the table.
func (s *source) Next() (units.Seconds, workload.Benchmark, units.Seconds) {
	a := &s.arrivals[s.next]
	s.next++
	return a.at, s.benches[a.bench], a.nominal
}

// push appends one routed arrival to the tail of the window.
func (s *source) push(a arrival) {
	s.arrivals = append(s.arrivals, a)
	s.hashed = false
}

// rewind empties a fully consumed window so the next one reuses its
// storage: a closed-loop source holds at most one epoch's arrivals, not the
// run's.
func (s *source) rewind() {
	if s.next == len(s.arrivals) {
		s.arrivals, s.next = s.arrivals[:0], 0
		s.hashed = false
	}
}

// SnapshotState captures the cursor (as the rngState slot of the sim
// snapshot format — the source has no RNG, so the cursor rides there).
func (s *source) SnapshotState() (rngState uint64, next units.Seconds) {
	return uint64(s.next), s.Peek()
}

// RestoreState resumes replay from a captured cursor.
func (s *source) RestoreState(rngState uint64, _ units.Seconds) {
	s.next = min(int(rngState), len(s.arrivals))
}

// SourceSignature identifies the pushed content to the snapshot layer. Only
// the warm-start path reads it, so the hash is computed on first use rather
// than on every run.
func (s *source) SourceSignature() uint64 {
	if !s.hashed {
		s.sig = streamSignature(s.benches, s.arrivals)
		s.hashed = true
	}
	return s.sig
}

// streamSignature hashes a chassis's replay content into the 64-bit source
// identity: every field of every benchmark table entry, then every record's
// (at, nominal, bench), so chassis with different dispatched slices can
// never share a snapshot key. Records go through one reused buffer, a few
// kilobytes per hash write.
func streamSignature(benches []workload.Benchmark, arrivals []arrival) uint64 {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	le := binary.LittleEndian
	f64 := func(v float64) { buf = le.AppendUint64(buf, math.Float64bits(v)) }
	buf = le.AppendUint64(buf, uint64(len(benches)))
	for _, b := range benches {
		buf = le.AppendUint64(buf, uint64(len(b.Name)))
		buf = append(buf, b.Name...)
		buf = le.AppendUint64(buf, uint64(b.Class))
		f64(float64(b.MeanDuration))
		f64(float64(b.PowerAt90C))
		f64(b.FreqSensitivity)
		f64(float64(b.SocketTDP))
	}
	const record = 20
	for i := range arrivals {
		if len(buf)+record > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		a := &arrivals[i]
		f64(float64(a.at))
		f64(float64(a.nominal))
		buf = le.AppendUint32(buf, uint32(a.bench))
	}
	h.Write(buf)
	sum := h.Sum(nil)
	return le.Uint64(sum[:8])
}
