// Run snapshots: Snapshot serializes the complete mutable state of a
// simulator mid-run; Restore resumes it — in the same simulator or a fresh
// one built from an equivalent Config — bit-for-bit. The contract is the
// engine-equivalence contract extended across process boundaries:
//
//	RunTo(t) + Snapshot + [new process] New + Restore + Finish
//
// produces the identical metrics.Result, job trajectory, and telemetry event
// stream as one uninterrupted Run. The experiment harness uses this to
// simulate a shared warmup once and fork every variant from it.
//
// Format (little-endian throughout):
//
//	magic "DSNP" | version u32 | cfgSig [32]byte | payloadLen u64 | payload | sha256 [32]byte
//
// cfgSig is a SHA-256 over the run's identity — topology, airflow, workload,
// scheduler name, thermal constants, seeds — excluding Duration and
// DrainLimit: the pre-snapshot trajectory is identical for any horizon that
// has not ended yet (arrival admissibility is re-evaluated against the live
// config on every query), so one warmup snapshot serves runs of different
// lengths. The trailing digest covers every preceding byte. Restore fails
// closed: a wrong magic, version, config signature, truncation, or a single
// flipped bit anywhere is rejected before any state is touched.
package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"densim/internal/geometry"
	"densim/internal/job"
	"densim/internal/metrics"
	"densim/internal/sched"
	"densim/internal/units"
	"densim/internal/workload"
)

// snapshotMagic and snapshotVersion identify the format; any mismatch is
// rejected. Bump the version on any payload layout change.
var snapshotMagic = [4]byte{'D', 'S', 'N', 'P'}

const snapshotVersion uint32 = 2

// sourceSnapshotter is the accessor pair a workload source must provide to
// be snapshottable; workload.Arrivals implements it. Sources without it
// (e.g. recorded-trace players with their own cursor) make the run refuse to
// snapshot rather than silently capture a source that cannot resume.
type sourceSnapshotter interface {
	SnapshotState() (rngState uint64, next units.Seconds)
	RestoreState(rngState uint64, next units.Seconds)
}

// sourceIdentifier lets a custom workload source contribute an identity hash
// to the config signature. Without it, two runs differing only in their
// injected sources share a signature — the fleet layer feeds each chassis a
// distinct pre-dispatched arrival slice through the same source type, and a
// warm-start cache keyed on the signature alone would silently restore one
// chassis's warmup into another. Sources that implement it (fleet replay
// sources hash their arrival records) get per-content signatures; sources
// that don't keep the historical signature, so existing captures stay valid.
type sourceIdentifier interface {
	SourceSignature() uint64
}

// snapshotable reports (with a reason) whether this run supports snapshots.
// The invariant harness accumulates run history that a restore would
// falsify, and a source without sourceSnapshotter has a cursor the
// serializer cannot see — both refuse, fail closed.
func (s *Simulator) snapshotable() error {
	if s.checks != nil {
		return fmt.Errorf("sim: snapshot with invariant harness installed (checks accumulate run history a restore would falsify)")
	}
	if _, ok := s.source.(sourceSnapshotter); !ok {
		return fmt.Errorf("sim: workload source %T does not support snapshots", s.source)
	}
	return nil
}

// cfgSig hashes the run's identity. Two simulators with equal signatures
// follow bit-identical trajectories up to any instant both horizons cover,
// so a snapshot from one resumes exactly in the other.
func (s *Simulator) cfgSig() [32]byte {
	var w snapWriter
	c := &s.cfg
	// Topology.
	w.str(s.srv.Name)
	w.u64(uint64(s.srv.Rows))
	w.u64(uint64(s.srv.Lanes))
	w.u64(uint64(s.srv.Depth))
	for _, x := range s.srv.XPositions {
		w.f64(float64(x))
	}
	for _, sk := range s.srv.Sockets() {
		w.u64(uint64(sk.Row))
		w.u64(uint64(sk.Lane))
		w.u64(uint64(sk.Pos))
		w.u64(uint64(s.srv.Sink(sk.ID)))
	}
	w.f64(float64(s.srv.RowPitch))
	w.f64(float64(s.srv.LanePitch))
	// Airflow.
	w.f64(float64(c.Airflow.Inlet))
	w.f64(float64(c.Airflow.FlowPerLane))
	w.f64(c.Airflow.Concentration)
	w.f64(float64(c.Airflow.MixLength))
	w.f64(float64(c.Airflow.AuxPerSocket))
	w.f64(c.Airflow.Air.DensityKgM3)
	w.f64(c.Airflow.Air.SpecificHeatJKgK)
	// Policy and workload.
	w.str(c.Scheduler.Name())
	w.str(c.Mix.Name())
	for _, b := range c.Mix.Benchmarks() {
		w.bench(b)
	}
	w.f64(c.Load)
	w.u64(c.Seed)
	if c.Source != nil {
		w.u8(1) // custom source: identity beyond the interface is opaque...
		if ident, ok := c.Source.(sourceIdentifier); ok {
			w.u64(ident.SourceSignature()) // ...unless the source hashes itself
		}
	} else {
		w.u8(0)
	}
	// Timing and thermal constants. Duration and DrainLimit are deliberately
	// absent — see the package comment.
	w.f64(float64(c.Warmup))
	w.f64(float64(c.TickPeriod))
	w.f64(float64(c.TDP))
	w.f64(float64(c.HistoryTau))
	w.f64(float64(c.SinkTau))
	w.f64(float64(c.ChipTau))
	if c.DisableBoost {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.f64(float64(c.BoostWindow))
	w.f64(boostTier1Util)
	w.f64(boostTier2Util)
	w.f64(float64(c.Migration.Period))
	w.f64(float64(c.Migration.Cost))
	w.f64(c.Migration.MinGainMHz)
	w.f64(c.Migration.MinRemainingWork)
	// Heterogeneous SKUs: a per-cartridge override changes the trajectory
	// from the first tick, so the per-socket (TDP, FMax) pairs are identity.
	if s.hetero {
		w.u8(1)
		for i := range s.sockets {
			sku := s.srv.SKU(geometry.SocketID(i))
			w.f64(float64(sku.TDP))
			w.f64(float64(sku.FMax))
		}
	} else {
		w.u8(0)
	}
	// Fault timeline: the canonical encoding covers every semantic field, so
	// a capture can never restore under a different fault schedule. A run
	// without faults contributes a zero-length marker.
	fb := c.Faults.Canonical()
	w.u32(uint32(len(fb)))
	w.buf = append(w.buf, fb...)
	return sha256.Sum256(w.buf)
}

// SnapshotKey returns a filesystem-safe identity for this run's snapshots:
// the hex form of the configuration signature. Two simulators share a key
// exactly when a snapshot from one restores into the other, so the key is
// the natural cache-file name for warm-start layers (internal/experiments'
// WarmDir). It refuses for the same reasons Snapshot does.
func (s *Simulator) SnapshotKey() (string, error) {
	if err := s.snapshotable(); err != nil {
		return "", err
	}
	sig := s.cfgSig()
	return hex.EncodeToString(sig[:]), nil
}

// Snapshot serializes the simulator's full mutable state. Call it at a tick
// boundary (e.g. after RunTo); the capture includes every job in flight, all
// thermal state, every metrics accumulator, and all RNG stream positions.
func (s *Simulator) Snapshot() ([]byte, error) {
	if err := s.snapshotable(); err != nil {
		return nil, err
	}
	var p snapWriter
	// Clock and counters.
	p.f64(float64(s.now))
	p.u64(uint64(s.nextID))
	p.u64(uint64(s.arrived))
	p.u64(uint64(s.migrations))
	p.f64(float64(s.nextMigration))
	p.u64(s.telTicks)
	if s.ended {
		p.u8(1)
	} else {
		p.u8(0)
	}
	// Sockets.
	p.u64(uint64(len(s.sockets)))
	for i := range s.sockets {
		st := &s.sockets[i]
		if j := s.jobs[i]; j != nil {
			p.u8(1)
			p.job(j)
		} else {
			p.u8(0)
		}
		p.f64(float64(s.freq[i]))
		p.f64(float64(s.amb[i]))
		p.f64(float64(s.chip[i]))
		p.f64(float64(s.hist[i]))
		p.f64(s.util[i])
		p.f64(float64(s.pewma[i]))
		p.f64(float64(s.powers[i]))
		p.f64(float64(st.lastUpdate))
		p.f64(float64(st.doneAt))
	}
	// Pending queue, FIFO order.
	p.u64(uint64(s.queue.Len()))
	for i := 0; i < s.queue.Len(); i++ {
		p.job(s.queue.At(i))
	}
	// Workload source.
	rngState, next := s.source.(sourceSnapshotter).SnapshotState()
	p.u64(rngState)
	p.f64(float64(next))
	// Scheduler RNG stream, when the policy carries one.
	if rc, ok := s.cfg.Scheduler.(sched.RNGCarrier); ok {
		p.u8(1)
		p.u64(rc.RNGState())
	} else {
		p.u8(0)
	}
	// Metrics accumulators.
	p.collector(s.col.State())
	// Fault runtime (presence is implied by the config signature, but the
	// flag keeps the payload self-describing).
	if f := s.flt; f != nil {
		p.u8(1)
		p.u64(uint64(f.cursor))
		p.u64(uint64(f.working))
		p.f64(f.derate)
		p.f64(f.flowFactor)
		p.f64(float64(f.fanPowerW))
		p.f64(float64(f.fanEnergyJ))
		p.f64(float64(f.curInlet))
		if f.rampActive {
			p.u8(1)
		} else {
			p.u8(0)
		}
		p.f64(float64(f.rampStart))
		p.f64(float64(f.rampLen))
		p.f64(float64(f.rampFrom))
		p.f64(float64(f.rampTo))
		p.u64(uint64(f.requeues))
		for i := range f.dead {
			b := uint8(0)
			if f.dead[i] {
				b |= 1
			}
			if f.capped[i] {
				b |= 2
			}
			p.u8(b)
		}
	} else {
		p.u8(0)
	}

	sig := s.cfgSig()
	var w snapWriter
	w.buf = append(w.buf, snapshotMagic[:]...)
	w.u32(snapshotVersion)
	w.buf = append(w.buf, sig[:]...)
	w.u64(uint64(len(p.buf)))
	w.buf = append(w.buf, p.buf...)
	digest := sha256.Sum256(w.buf)
	w.buf = append(w.buf, digest[:]...)
	return w.buf, nil
}

// Restore overwrites the simulator's state with a Snapshot capture. The
// simulator must have been built from an equivalent Config (equal cfgSig;
// Duration and DrainLimit may differ). Every derived structure — completion
// heap, idle set, engine caches — is rebuilt; on any validation failure the
// simulator is left untouched.
func (s *Simulator) Restore(data []byte) error {
	if err := s.snapshotable(); err != nil {
		return err
	}
	const headerLen = 4 + 4 + 32 + 8
	if len(data) < headerLen+sha256.Size {
		return fmt.Errorf("sim: snapshot truncated (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != snapshotMagic {
		return fmt.Errorf("sim: bad snapshot magic %q", data[:4])
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sha256.Sum256(body) != [sha256.Size]byte(tail) {
		return fmt.Errorf("sim: snapshot digest mismatch (corrupt or tampered)")
	}
	r := snapReader{buf: data[4:]}
	if v := r.u32(); v != snapshotVersion {
		return fmt.Errorf("sim: snapshot version %d, want %d", v, snapshotVersion)
	}
	var sig [32]byte
	copy(sig[:], r.bytes(32))
	if sig != s.cfgSig() {
		return fmt.Errorf("sim: snapshot config signature mismatch (the capture is from a different run configuration)")
	}
	payloadLen := r.u64()
	if r.err != nil {
		return fmt.Errorf("sim: snapshot header truncated")
	}
	if got := uint64(len(data) - headerLen - sha256.Size); got != payloadLen {
		return fmt.Errorf("sim: snapshot payload length %d, header says %d", got, payloadLen)
	}
	r.buf = r.buf[:len(r.buf)-sha256.Size] // digest is not payload

	// Decode into locals first: nothing below touches the simulator until
	// the whole payload has parsed cleanly.
	now := units.Seconds(r.f64())
	nextID := job.ID(r.u64())
	arrived := int(r.u64())
	migrations := int(r.u64())
	nextMigration := units.Seconds(r.f64())
	telTicks := r.u64()
	ended := r.u8()
	if r.err == nil && ended > 1 {
		return fmt.Errorf("sim: snapshot ended flag %d", ended)
	}
	nSockets := int(r.u64())
	if nSockets != len(s.sockets) {
		return fmt.Errorf("sim: snapshot has %d sockets, topology has %d", nSockets, len(s.sockets))
	}
	type sockSnap struct {
		j               *job.Job
		state           socketState
		freq            units.MHz
		amb, chip, hist units.Celsius
		util            float64
		pewma, power    units.Watts
	}
	socks := make([]sockSnap, nSockets)
	for i := range socks {
		sn := &socks[i]
		st := &sn.state
		if busy := r.u8(); busy == 1 {
			sn.j = r.job()
		} else if busy != 0 {
			return fmt.Errorf("sim: snapshot socket %d has busy flag %d", i, busy)
		}
		sn.freq = units.MHz(r.f64())
		sn.amb = units.Celsius(r.f64())
		sn.chip = units.Celsius(r.f64())
		sn.hist = units.Celsius(r.f64())
		sn.util = r.f64()
		sn.pewma = units.Watts(r.f64())
		sn.power = units.Watts(r.f64())
		st.lastUpdate = units.Seconds(r.f64())
		st.doneAt = units.Seconds(r.f64())
	}
	nQueued := int(r.u64())
	if nQueued < 0 || nQueued > 1<<24 {
		return fmt.Errorf("sim: snapshot queue length %d is implausible", nQueued)
	}
	queued := make([]*job.Job, nQueued)
	for i := range queued {
		queued[i] = r.job()
	}
	srcRNG := r.u64()
	srcNext := units.Seconds(r.f64())
	hasSchedRNG := r.u8()
	var schedRNG uint64
	if hasSchedRNG == 1 {
		schedRNG = r.u64()
	} else if hasSchedRNG != 0 {
		return fmt.Errorf("sim: snapshot scheduler-RNG flag %d", hasSchedRNG)
	}
	colState, colErr := r.collector()
	if colErr != nil {
		return colErr
	}
	type faultSnap struct {
		cursor, working     int
		derate, flowFactor  float64
		fanPowerW           units.Watts
		fanEnergyJ          units.Joules
		curInlet            units.Celsius
		rampActive          bool
		rampStart, rampLen  units.Seconds
		rampFrom, rampTo    units.Celsius
		requeues, deadCount int
		dead, capped        []bool
	}
	var fs *faultSnap
	hasFaults := r.u8()
	if hasFaults > 1 {
		return fmt.Errorf("sim: snapshot fault flag %d", hasFaults)
	}
	if (hasFaults == 1) != (s.flt != nil) {
		return fmt.Errorf("sim: snapshot fault-state presence does not match the configured timeline")
	}
	if hasFaults == 1 {
		fs = &faultSnap{
			cursor:     int(r.u64()),
			working:    int(r.u64()),
			derate:     r.f64(),
			flowFactor: r.f64(),
			fanPowerW:  units.Watts(r.f64()),
			fanEnergyJ: units.Joules(r.f64()),
			curInlet:   units.Celsius(r.f64()),
		}
		rampFlag := r.u8()
		if rampFlag > 1 {
			return fmt.Errorf("sim: snapshot ramp flag %d", rampFlag)
		}
		fs.rampActive = rampFlag == 1
		fs.rampStart = units.Seconds(r.f64())
		fs.rampLen = units.Seconds(r.f64())
		fs.rampFrom = units.Celsius(r.f64())
		fs.rampTo = units.Celsius(r.f64())
		fs.requeues = int(r.u64())
		if fs.cursor < 0 || fs.cursor > len(s.flt.steps) {
			return fmt.Errorf("sim: snapshot fault cursor %d outside timeline of %d steps", fs.cursor, len(s.flt.steps))
		}
		fs.dead = make([]bool, nSockets)
		fs.capped = make([]bool, nSockets)
		for i := 0; i < nSockets; i++ {
			b := r.u8()
			if b > 3 {
				return fmt.Errorf("sim: snapshot socket %d fault bits %d", i, b)
			}
			fs.dead[i] = b&1 != 0
			fs.capped[i] = b&2 != 0
			if fs.dead[i] {
				fs.deadCount++
			}
			if fs.dead[i] && socks[i].j != nil {
				return fmt.Errorf("sim: snapshot socket %d is both dead and busy", i)
			}
		}
	}
	if r.err != nil {
		return fmt.Errorf("sim: snapshot payload truncated")
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("sim: snapshot payload has %d trailing bytes", len(r.buf))
	}
	if _, ok := s.cfg.Scheduler.(sched.RNGCarrier); ok != (hasSchedRNG == 1) {
		return fmt.Errorf("sim: snapshot scheduler-RNG presence does not match the configured policy")
	}

	// Commit. Overwrite primary state, then rebuild every derived structure.
	s.now = now
	s.nextID = nextID
	s.arrived = arrived
	s.migrations = migrations
	s.nextMigration = nextMigration
	s.telTicks = telTicks
	s.ended = ended == 1
	s.busyCount = 0
	s.idleSet = s.idleSet[:0]
	for i := range s.sockets {
		sn := &socks[i]
		st := &sn.state
		st.placement = s.sockets[i].placement // immutable, from topology
		s.sockets[i] = *st
		s.jobs[i] = sn.j
		s.freq[i] = sn.freq
		s.amb[i] = sn.amb
		s.chip[i] = sn.chip
		s.hist[i] = sn.hist
		s.util[i] = sn.util
		s.pewma[i] = sn.pewma
		s.powers[i] = sn.power
		s.comp.update(i, st.doneAt)
		if sn.j != nil {
			s.busyCount++
		} else if fs == nil || !fs.dead[i] {
			// Dead sockets are neither busy nor idle: they stay out of the
			// scheduler's candidate set.
			s.idleSet = append(s.idleSet, geometry.SocketID(i))
		}
		s.eng.invalidatePick(i)
	}
	for s.queue.Len() > 0 {
		s.queue.Pop()
	}
	for _, j := range queued {
		s.queue.Push(j)
	}
	s.source.(sourceSnapshotter).RestoreState(srcRNG, srcNext)
	if rc, ok := s.cfg.Scheduler.(sched.RNGCarrier); ok {
		rc.SetRNGState(schedRNG)
	}
	s.col.SetState(colState)
	if fs != nil {
		f := s.flt
		f.cursor = fs.cursor
		f.working = fs.working
		f.derate = fs.derate
		f.flowFactor = fs.flowFactor
		f.fanPowerW = fs.fanPowerW
		f.fanEnergyJ = fs.fanEnergyJ
		f.curInlet = fs.curInlet
		f.rampActive = fs.rampActive
		f.rampStart = fs.rampStart
		f.rampLen = fs.rampLen
		f.rampFrom = fs.rampFrom
		f.rampTo = fs.rampTo
		f.requeues = fs.requeues
		copy(f.dead, fs.dead)
		copy(f.capped, fs.capped)
		f.deadCount = fs.deadCount
		// Re-apply the fault physics: the airflow model must match the
		// restored flow factor and inlet. Rebuilding from the original config
		// is deterministic, so a factor-1 base-inlet rebuild is bit-identical
		// to the model New constructed.
		s.applyFlowPhysics()
	}
	// The caps mirror is derived from the just-restored util and capped
	// vectors: rebuild it wholesale.
	for i := range s.caps {
		s.caps[i] = s.capFor(i, s.util[i])
	}
	// Engine caches: every lane's cached ambient is stale relative to the
	// restored powers, so mark everything dirty and nothing settled; the
	// first sweep recomputes from scratch, exactly like a cold start. Lane
	// epochs advance too: a restore can rewind state under an unchanged
	// epoch, which would otherwise let a scheduler replay a stale score.
	s.bumpAllLanes()
	for ch := range s.eng.dirty {
		s.eng.dirty[ch] = true
	}
	for ch := range s.eng.laneSettled {
		s.eng.laneSettled[ch] = false
	}
	return nil
}

// --- binary encoding helpers -------------------------------------------------

// snapWriter appends little-endian primitives to a growing buffer.
type snapWriter struct {
	buf []byte
}

func (w *snapWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *snapWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *snapWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *snapWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *snapWriter) str(v string) {
	w.u32(uint32(len(v)))
	w.buf = append(w.buf, v...)
}

func (w *snapWriter) bench(b workload.Benchmark) {
	w.str(b.Name)
	w.u32(uint32(b.Class))
	w.f64(float64(b.MeanDuration))
	w.f64(float64(b.PowerAt90C))
	w.f64(b.FreqSensitivity)
	w.f64(float64(b.SocketTDP))
}

func (w *snapWriter) job(j *job.Job) {
	w.u64(uint64(j.ID))
	w.bench(j.Benchmark)
	w.f64(float64(j.Arrival))
	w.f64(float64(j.NominalDuration))
	w.f64(float64(j.Work))
	w.f64(float64(j.Started))
	w.f64(float64(j.Done))
}

func (w *snapWriter) welford(ws metrics.WelfordState) {
	w.f64(ws.WSum)
	w.f64(ws.Mean)
	w.f64(ws.M2)
}

func (w *snapWriter) collector(st metrics.CollectorState) {
	w.u64(uint64(st.Completed))
	w.welford(st.SojournExp)
	w.welford(st.ServiceExp)
	w.welford(st.WaitSec)
	w.f64(st.TotalWork)
	for _, v := range st.RegionWork {
		w.f64(v)
	}
	w.u32(uint32(len(st.ZoneWork)))
	for _, zv := range st.ZoneWork {
		w.u64(uint64(int64(zv.Zone)))
		w.f64(zv.Value)
	}
	for _, wf := range st.RegionFreq {
		w.welford(wf)
	}
	w.u32(uint32(len(st.ZoneFreq)))
	for _, zw := range st.ZoneFreq {
		w.u64(uint64(int64(zw.Zone)))
		w.welford(zw.W)
	}
	w.f64(st.EnergyJ)
	w.f64(float64(st.Start))
	w.f64(float64(st.End))
	w.f64(st.BusySeconds)
	w.f64(st.BoostSeconds)
}

// snapReader consumes little-endian primitives with a latched error: after
// the first short read every subsequent read returns zero values and the
// caller checks err once.
type snapReader struct {
	buf []byte
	err error
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil || len(r.buf) < n {
		r.err = fmt.Errorf("sim: snapshot truncated")
		return make([]byte, n)
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *snapReader) u8() uint8    { return r.bytes(1)[0] }
func (r *snapReader) u32() uint32  { return binary.LittleEndian.Uint32(r.bytes(4)) }
func (r *snapReader) u64() uint64  { return binary.LittleEndian.Uint64(r.bytes(8)) }
func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *snapReader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > len(r.buf) {
		r.err = fmt.Errorf("sim: snapshot truncated")
		return ""
	}
	return string(r.bytes(n))
}

func (r *snapReader) bench() workload.Benchmark {
	var b workload.Benchmark
	b.Name = r.str()
	b.Class = workload.Class(r.u32())
	b.MeanDuration = units.Seconds(r.f64())
	b.PowerAt90C = units.Watts(r.f64())
	b.FreqSensitivity = r.f64()
	b.SocketTDP = units.Watts(r.f64())
	return b
}

func (r *snapReader) job() *job.Job {
	var j job.Job
	j.ID = job.ID(r.u64())
	j.Benchmark = r.bench()
	j.Arrival = units.Seconds(r.f64())
	j.NominalDuration = units.Seconds(r.f64())
	j.Work = units.Seconds(r.f64())
	j.Started = units.Seconds(r.f64())
	j.Done = units.Seconds(r.f64())
	return &j
}

func (r *snapReader) welford() metrics.WelfordState {
	return metrics.WelfordState{WSum: r.f64(), Mean: r.f64(), M2: r.f64()}
}

func (r *snapReader) collector() (metrics.CollectorState, error) {
	var st metrics.CollectorState
	st.Completed = int(r.u64())
	st.SojournExp = r.welford()
	st.ServiceExp = r.welford()
	st.WaitSec = r.welford()
	st.TotalWork = r.f64()
	for i := range st.RegionWork {
		st.RegionWork[i] = r.f64()
	}
	nzw := int(r.u32())
	if r.err == nil && (nzw < 0 || nzw > 1<<20) {
		return st, fmt.Errorf("sim: snapshot zone-work count %d is implausible", nzw)
	}
	st.ZoneWork = make([]metrics.ZoneValue, 0, nzw)
	for i := 0; i < nzw && r.err == nil; i++ {
		st.ZoneWork = append(st.ZoneWork, metrics.ZoneValue{Zone: int(int64(r.u64())), Value: r.f64()})
	}
	for i := range st.RegionFreq {
		st.RegionFreq[i] = r.welford()
	}
	nzf := int(r.u32())
	if r.err == nil && (nzf < 0 || nzf > 1<<20) {
		return st, fmt.Errorf("sim: snapshot zone-freq count %d is implausible", nzf)
	}
	st.ZoneFreq = make([]metrics.ZoneWelford, 0, nzf)
	for i := 0; i < nzf && r.err == nil; i++ {
		st.ZoneFreq = append(st.ZoneFreq, metrics.ZoneWelford{Zone: int(int64(r.u64())), W: r.welford()})
	}
	st.EnergyJ = r.f64()
	st.Start = units.Seconds(r.f64())
	st.End = units.Seconds(r.f64())
	st.BusySeconds = r.f64()
	st.BoostSeconds = r.f64()
	if !sort.SliceIsSorted(st.ZoneWork, func(i, j int) bool { return st.ZoneWork[i].Zone < st.ZoneWork[j].Zone }) ||
		!sort.SliceIsSorted(st.ZoneFreq, func(i, j int) bool { return st.ZoneFreq[i].Zone < st.ZoneFreq[j].Zone }) {
		return st, fmt.Errorf("sim: snapshot zone tables are not in canonical order")
	}
	return st, nil
}
