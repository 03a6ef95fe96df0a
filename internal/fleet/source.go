package fleet

// The replay sources: each chassis simulation consumes its dispatched share
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

// records is the state both replay sources share: the benchmark table the
// compact records index, the records themselves, and the consumption cursor.
type records struct {
	benches  []workload.Benchmark
	arrivals []arrival
	next     int
}

// Peek returns the next arrival instant, or +Inf when the records are
// drained.
func (r *records) Peek() units.Seconds {
	if r.next >= len(r.arrivals) {
		return units.Seconds(math.Inf(1))
	}
	return r.arrivals[r.next].at
}

// Next consumes the next arrival, resolving its benchmark from the table.
func (r *records) Next() (units.Seconds, workload.Benchmark, units.Seconds) {
	a := &r.arrivals[r.next]
	r.next++
	return a.at, r.benches[a.bench], a.nominal
}

// replaySource feeds an open-loop chassis its dispatched arrivals in order.
// It implements job.Source, the sim package's snapshot accessors (the cursor
// is the whole mutable state — there is no RNG), and the source-identity
// hook, so fleet runs warm-start through the same WarmDir cache as plain
// sweeps without two chassis ever sharing a cache key by accident.
type replaySource struct {
	records
	sig    uint64
	hashed bool
}

// newReplaySource builds the source over a benchmark table and the records
// indexing it.
func newReplaySource(benches []workload.Benchmark, arrivals []arrival) *replaySource {
	return &replaySource{records: records{benches: benches, arrivals: arrivals}}
}

// SnapshotState captures the cursor (as the rngState slot of the sim
// snapshot format — the source has no RNG, so the cursor rides there).
func (r *replaySource) SnapshotState() (rngState uint64, next units.Seconds) {
	return uint64(r.next), r.Peek()
}

// RestoreState resumes replay from a captured cursor.
func (r *replaySource) RestoreState(rngState uint64, _ units.Seconds) {
	r.next = int(rngState)
	if r.next > len(r.arrivals) {
		r.next = len(r.arrivals)
	}
}

// SourceSignature identifies the replay content to the snapshot layer. Only
// the warm-start path reads it, so the hash is computed on first use rather
// than on every run.
func (r *replaySource) SourceSignature() uint64 {
	if !r.hashed {
		r.sig = streamSignature(r.benches, r.arrivals)
		r.hashed = true
	}
	return r.sig
}

// appendSource is the closed-loop replay source: the epoch executor appends
// each window's dispatched arrivals between RunTo steps, and the chassis
// simulator consumes them in order through the ordinary job.Source seam —
// the simulator cannot tell it is being fed incrementally. While the
// appended window is drained Peek reports +Inf, which is correct: the
// executor never advances a chassis past the boundary its arrivals have
// been dispatched through. Unlike replaySource it carries no snapshot
// identity — closed-loop runs never warm-start, because the per-chassis
// stream is only discovered epoch by epoch.
type appendSource struct{ records }

// push appends one dispatched arrival to the tail of the replay window.
func (a *appendSource) push(ar arrival) { a.arrivals = append(a.arrivals, ar) }

// rewind empties a fully consumed window so the next one reuses its
// storage: the source holds at most one epoch's arrivals, not the run's.
func (a *appendSource) rewind() {
	if a.next == len(a.arrivals) {
		a.arrivals, a.next = a.arrivals[:0], 0
	}
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
