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
// The payload is described once, by snapCodec.state: one walk over every
// field that encodes on Snapshot and decodes on Restore, so a field is named
// in exactly one place. cfgSig is a SHA-256 over the run's identity —
// topology, airflow, workload, scheduler name, thermal constants, seeds —
// excluding Duration and DrainLimit: the pre-snapshot trajectory is
// identical for any horizon that has not ended yet (arrival admissibility is
// re-evaluated against the live config on every query), so one warmup
// snapshot serves runs of different lengths. The trailing digest covers
// every preceding byte. Restore fails closed: a wrong magic, version, config
// signature, truncation, a single flipped bit anywhere, or a digest-valid
// payload that does not describe a reachable state is rejected before any
// state is touched.
package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"densim/internal/chipmodel"
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

// snapHeaderLen is magic + version + cfgSig + payloadLen.
const snapHeaderLen = 4 + 4 + 32 + 8

// sourceSnapshotter is the accessor pair a workload source must provide to
// be snapshottable; workload.Arrivals implements it. Sources without it
// (e.g. recorded-trace players with their own cursor) make the run refuse to
// snapshot rather than silently capture a source that cannot resume.
type sourceSnapshotter interface {
	SnapshotState() (rngState uint64, next units.Seconds)
	RestoreState(rngState uint64, next units.Seconds)
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

// Snapshot serializes the simulator's full mutable state. Call it at a tick
// boundary (e.g. after RunTo); the capture includes every job in flight, all
// thermal state, every metrics accumulator, and all RNG stream positions.
func (s *Simulator) Snapshot() ([]byte, error) {
	if err := s.snapshotable(); err != nil {
		return nil, err
	}
	c := &snapCodec{enc: true}
	version, sig := snapshotVersion, s.cfgSig()
	c.buf = append(c.buf, snapshotMagic[:]...)
	u32(c, &version)
	c.buf = append(c.buf, sig[:]...)
	c.buf = append(c.buf, make([]byte, 8)...) // payloadLen, patched below
	c.state(s, s.source.(sourceSnapshotter), s.schedRNG())
	binary.LittleEndian.PutUint64(c.buf[snapHeaderLen-8:], uint64(len(c.buf)-snapHeaderLen))
	digest := sha256.Sum256(c.buf)
	return append(c.buf, digest[:]...), nil
}

// Restore overwrites the simulator's state with a Snapshot capture. The
// simulator must have been built from an equivalent Config (equal cfgSig;
// Duration and DrainLimit may differ). The payload is decoded twice: first
// into a throwaway staging simulator, a pass that does all the validation,
// and only then into this one. Every derived structure — busy sockets'
// curves, completion heap, idle set, caps, airflow model, lane epochs and
// dirty flags — is then rebuilt; the ladder search is value-keyed, so it
// needs no reset. On any validation failure the simulator is left untouched.
func (s *Simulator) Restore(data []byte) error {
	if err := s.snapshotable(); err != nil {
		return err
	}
	if len(data) < snapHeaderLen+sha256.Size {
		return fmt.Errorf("sim: snapshot truncated (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != snapshotMagic {
		return fmt.Errorf("sim: bad snapshot magic %q", data[:4])
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sha256.Sum256(body) != [sha256.Size]byte(tail) {
		return fmt.Errorf("sim: snapshot digest mismatch (corrupt or tampered)")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapshotVersion {
		return fmt.Errorf("sim: snapshot version %d, want %d", v, snapshotVersion)
	}
	if sig := s.cfgSig(); [32]byte(data[8:40]) != sig {
		return fmt.Errorf("sim: snapshot config signature mismatch (the capture is from a different run configuration)")
	}
	payload := body[snapHeaderLen:]
	if n := binary.LittleEndian.Uint64(data[snapHeaderLen-8:]); n != uint64(len(payload)) {
		return fmt.Errorf("sim: snapshot payload length %d, header says %d", len(payload), n)
	}

	var stagedRNG sched.RNGCarrier
	if s.schedRNG() != nil {
		stagedRNG = &stream{}
	}
	if err := decodeState(payload, s.staging(), &stream{}, stagedRNG); err != nil {
		return err
	}
	if err := decodeState(payload, s, s.source.(sourceSnapshotter), s.schedRNG()); err != nil {
		// Validation reads only the payload and the immutable config, which
		// the staging pass shares, so the bytes it accepted cannot fail now.
		panic(fmt.Sprintf("sim: snapshot accepted by staging, rejected on commit: %v", err))
	}

	// Rebuild every structure derived from the decoded state.
	s.busyCount = 0
	s.idleSet = s.idleSet[:0]
	if s.flt != nil {
		s.flt.deadCount = 0
	}
	for i := range s.sockets {
		s.comp.update(i, s.sockets[i].doneAt)
		s.curve[i] = nil
		switch {
		case s.jobs[i] != nil:
			s.curve[i] = s.vec.Ladder.Curve(&s.jobs[i].Benchmark)
			s.busyCount++
		case s.flt != nil && s.flt.dead[i]:
			s.flt.deadCount++ // neither busy nor idle: never a candidate
		default:
			s.idleSet = append(s.idleSet, geometry.SocketID(i))
		}
	}
	if s.flt != nil {
		// The airflow model must match the restored flow factor and inlet;
		// a factor-1 base-inlet rebuild is bit-identical to New's model.
		s.applyFlowPhysics()
	}
	for i := range s.caps {
		s.caps[i] = s.capFor(i, s.util[i])
	}
	// Every cached lane ambient is stale: the first sweep recomputes all of
	// them, like a cold start. Epochs advance too, or a scheduler could
	// replay a score cached before the restore rewound its inputs.
	s.bumpAllLanes()
	s.allDirty()
	return nil
}

// schedRNG returns the policy's RNG stream, nil when it carries none.
func (s *Simulator) schedRNG() sched.RNGCarrier {
	rc, _ := s.cfg.Scheduler.(sched.RNGCarrier)
	return rc
}

// staging returns a throwaway simulator shaped like s — the same topology,
// airflow and fault timeline, fresh state — for Restore's validating pass.
func (s *Simulator) staging() *Simulator {
	t := &Simulator{srv: s.srv}
	t.cfg.Airflow = s.cfg.Airflow
	t.allocState(len(s.sockets))
	if f := s.flt; f != nil {
		n := len(f.dead)
		t.flt = &faultState{spec: f.spec, steps: f.steps, dead: make([]bool, n), capped: make([]bool, n)}
	}
	return t
}

// stream holds a staged RNG stream position: Restore's validating pass
// decodes the workload source's and the policy's positions into it.
type stream struct {
	state uint64
	next  units.Seconds
}

func (x *stream) SnapshotState() (uint64, units.Seconds)        { return x.state, x.next }
func (x *stream) RestoreState(state uint64, next units.Seconds) { x.state, x.next = state, next }
func (x *stream) RNGState() uint64                              { return x.state }
func (x *stream) SetRNGState(state uint64)                      { x.state = state }

// decodeState decodes a whole payload into t, src and rng.
func decodeState(payload []byte, t *Simulator, src sourceSnapshotter, rng sched.RNGCarrier) error {
	c := &snapCodec{buf: payload}
	c.state(t, src, rng)
	if c.err == nil && len(c.buf) != 0 {
		c.err = fmt.Errorf("sim: snapshot payload has %d trailing bytes", len(c.buf))
	}
	return c.err
}

// state is the payload: every field of the simulator's mutable state, in
// wire order. Sockets are interleaved records (busy flag and job, then nine
// floats), followed by the queue, the source and scheduler RNG streams, the
// collector and the fault runtime. Encoding reads t, src and rng; decoding
// writes them and validates everything a reachable state guarantees.
func (c *snapCodec) state(t *Simulator, src sourceSnapshotter, rng sched.RNGCarrier) {
	// Clock and counters. The clock must be a finite non-negative instant:
	// at -1e300 each tick's now += dt is absorbed and the run never ends.
	f64(c, &t.now)
	c.check(finite(t.now) && t.now >= 0, "sim: snapshot clock %v", t.now)
	u64(c, &t.nextID)
	u64(c, &t.arrived)
	u64(c, &t.migrations)
	f64(c, &t.nextMigration)
	c.check(finite(t.nextMigration) && t.nextMigration >= 0, "sim: snapshot next migration %v", t.nextMigration)
	u64(c, &t.telTicks)
	c.flags("ended", &t.ended)
	// Sockets.
	n := len(t.sockets)
	u64(c, &n)
	c.check(n == len(t.sockets), "sim: snapshot has %d sockets, topology has %d", n, len(t.sockets))
	for i := range t.sockets {
		busy := t.jobs[i] != nil
		c.flags("busy", &busy)
		if busy {
			c.job(&t.jobs[i])
		} else if !c.enc {
			t.jobs[i] = nil
		}
		// The P-state travels as its frequency in MHz, 0 while idle.
		f := t.mhz(i)
		f64(c, &f)
		f64(c, &t.amb[i])
		f64(c, &t.chip[i])
		f64(c, &t.hist[i])
		f64(c, &t.util[i])
		f64(c, &t.pewma[i])
		f64(c, &t.powers[i])
		st := &t.sockets[i]
		f64(c, &st.lastUpdate)
		f64(c, &st.doneAt)
		// A socket is accounted up to an instant no later than the clock. A
		// busy socket runs at a ladder point and completes no earlier than
		// that instant (its remaining work is clipped at zero); an idle or
		// dead one has no frequency and never completes.
		c.check(finite(st.lastUpdate) && st.lastUpdate <= t.now, "sim: snapshot socket %d accounted to %v, clock %v", i, st.lastUpdate, t.now)
		k, err := chipmodel.FreqIndex(f)
		if busy {
			c.check(err == nil, "sim: snapshot busy socket %d at %v, not a ladder point", i, f)
			c.check(st.doneAt >= st.lastUpdate, "sim: snapshot busy socket %d completes at %v, before %v", i, st.doneAt, st.lastUpdate)
		} else {
			c.check(f == 0 && st.doneAt == neverDone, "sim: snapshot idle socket %d at %v completing at %v", i, f, st.doneAt)
		}
		if !c.enc {
			t.pstate[i] = k
		}
	}
	// Pending queue, FIFO order.
	nq := t.queue.Len()
	c.count(&nq, true, minJobRecord, "queue")
	if !c.enc {
		for t.queue.Len() > 0 {
			t.queue.Pop()
		}
	}
	for i := 0; i < nq && c.err == nil; i++ {
		var j *job.Job
		if c.enc {
			j = t.queue.At(i)
		}
		c.job(&j)
		if !c.enc {
			t.queue.Push(j)
		}
	}
	// Workload source and scheduler RNG streams.
	srcRNG, srcNext := src.SnapshotState()
	u64(c, &srcRNG)
	f64(c, &srcNext)
	hasRNG := rng != nil
	c.flags("scheduler-RNG", &hasRNG)
	c.check(hasRNG == (rng != nil), "sim: snapshot scheduler-RNG presence does not match the configured policy")
	if hasRNG && rng != nil {
		state := rng.RNGState()
		u64(c, &state)
		if !c.enc {
			rng.SetRNGState(state)
		}
	}
	if !c.enc {
		src.RestoreState(srcRNG, srcNext)
	}
	c.collector(t.col, t.srv.Depth)
	c.faults(t)
}

// collector codes the metrics accumulators. Zone tables must name zones in
// [1, depth], strictly ascending: the collector indexes dense slices by zone.
func (c *snapCodec) collector(col *metrics.Collector, depth int) {
	var st metrics.CollectorState
	if c.enc {
		st = col.State()
	}
	u64(c, &st.Completed)
	c.welford(&st.SojournExp)
	c.welford(&st.ServiceExp)
	c.welford(&st.WaitSec)
	f64(c, &st.TotalWork)
	for i := range st.RegionWork {
		f64(c, &st.RegionWork[i])
	}
	n := len(st.ZoneWork)
	c.count(&n, false, 8+8, "zone-work")
	if !c.enc {
		st.ZoneWork = make([]metrics.ZoneValue, n)
	}
	prev := 0
	for i := range st.ZoneWork {
		c.zone(&st.ZoneWork[i].Zone, &prev, depth)
		f64(c, &st.ZoneWork[i].Value)
	}
	for i := range st.RegionFreq {
		c.welford(&st.RegionFreq[i])
	}
	n = len(st.ZoneFreq)
	c.count(&n, false, 8+3*8, "zone-freq")
	if !c.enc {
		st.ZoneFreq = make([]metrics.ZoneWelford, n)
	}
	prev = 0
	for i := range st.ZoneFreq {
		c.zone(&st.ZoneFreq[i].Zone, &prev, depth)
		c.welford(&st.ZoneFreq[i].W)
	}
	f64(c, &st.EnergyJ)
	f64(c, &st.Start)
	f64(c, &st.End)
	f64(c, &st.BusySeconds)
	f64(c, &st.BoostSeconds)
	if !c.enc && c.err == nil {
		col.SetState(st)
	}
}

// faults codes the fault runtime. Its presence is implied by the config
// signature, but the flag keeps the payload self-describing.
func (c *snapCodec) faults(t *Simulator) {
	f := t.flt
	has := f != nil
	c.flags("fault", &has)
	c.check(has == (f != nil), "sim: snapshot fault-state presence does not match the configured timeline")
	if !has || f == nil {
		return
	}
	u64(c, &f.cursor)
	c.check(f.cursor >= 0 && f.cursor <= len(f.steps), "sim: snapshot fault cursor %d outside timeline of %d steps", f.cursor, len(f.steps))
	u64(c, &f.working)
	fans := f.spec.FanCount
	c.check(f.working >= min(1, fans) && f.working <= fans, "sim: snapshot has %d working fans of %d", f.working, fans)
	f64(c, &f.derate)
	f64(c, &f.flowFactor)
	// applyFlowPhysics rebuilds the airflow model at this factor, which
	// must leave a positive finite lane flow.
	flow := float64(t.cfg.Airflow.FlowPerLane) * f.flowFactor
	c.check(flow > 0 && !math.IsInf(flow, 0), "sim: snapshot flow factor %v", f.flowFactor)
	f64(c, &f.fanPowerW)
	f64(c, &f.fanEnergyJ)
	f64(c, &f.curInlet)
	c.flags("ramp", &f.rampActive)
	f64(c, &f.rampStart)
	f64(c, &f.rampLen)
	c.check(finite(f.rampStart) && finite(f.rampLen) && f.rampLen >= 0, "sim: snapshot inlet ramp from %v over %v", f.rampStart, f.rampLen)
	f64(c, &f.rampFrom)
	f64(c, &f.rampTo)
	u64(c, &f.requeues)
	for i := range f.dead {
		c.flags("fault", &f.dead[i], &f.capped[i])
		c.check(!f.dead[i] || t.jobs[i] == nil, "sim: snapshot socket %d is both dead and busy", i)
	}
}

// snapCodec is one direction of the codec: encoding appends each field to
// buf and never writes through the pointers it is given (cfgSig hands it
// fields of a server that concurrent runs share); decoding consumes buf and
// overwrites the fields. A decode failure latches in err, after which reads
// yield zeros, so a walk runs to its end and err is read once.
type snapCodec struct {
	enc bool
	buf []byte
	err error
}

// minJobRecord is a job's smallest encoding: ID, an empty-named benchmark
// (length, class, four floats) and five floats.
const minJobRecord = 8 + 4 + 4 + 4*8 + 5*8

// finite reports that x is neither NaN nor infinite.
func finite[T ~float64](x T) bool {
	return !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0)
}

// check latches a validation failure while decoding.
func (c *snapCodec) check(ok bool, format string, args ...any) {
	if !ok && !c.enc && c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// take consumes n payload bytes (zeros once truncated).
func (c *snapCodec) take(n int) []byte {
	if c.err != nil || len(c.buf) < n {
		c.check(false, "sim: snapshot payload truncated")
		return make([]byte, n)
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

func u32[T ~int | ~uint32](c *snapCodec, p *T) {
	if c.enc {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*p))
		return
	}
	*p = T(binary.LittleEndian.Uint32(c.take(4)))
}

func u64[T ~int | ~int64 | ~uint64](c *snapCodec, p *T) {
	if c.enc {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*p))
		return
	}
	*p = T(binary.LittleEndian.Uint64(c.take(8)))
}

func f64[T ~float64](c *snapCodec, p *T) {
	if c.enc {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(float64(*p)))
		return
	}
	*p = T(math.Float64frombits(binary.LittleEndian.Uint64(c.take(8))))
}

// count codes a record count, 8 bytes wide or 4. Decoding bounds it by the
// bytes left at rec bytes per record at least, so nothing sized by it can
// outgrow the payload.
func (c *snapCodec) count(n *int, wide bool, rec int, what string) {
	if wide {
		u64(c, n)
	} else {
		u32(c, n)
	}
	c.check(*n >= 0 && *n <= len(c.buf)/rec, "sim: snapshot %s count %d overruns the %d bytes left", what, *n, len(c.buf))
	if c.err != nil {
		*n = 0
	}
}

// flags codes up to eight bools as the bits of one byte, rejecting any
// other bit.
func (c *snapCodec) flags(what string, ps ...*bool) {
	var b uint8
	for i, p := range ps {
		if *p {
			b |= 1 << i
		}
	}
	if c.enc {
		c.buf = append(c.buf, b)
	} else {
		b = c.take(1)[0]
	}
	if b>>len(ps) != 0 {
		c.check(false, "sim: snapshot %s bits %#x", what, b)
	}
	for i := 0; i < len(ps) && !c.enc; i++ {
		*ps[i] = b>>i&1 != 0
	}
}

func (c *snapCodec) str(p *string) {
	n := len(*p)
	u32(c, &n)
	if c.enc {
		c.buf = append(c.buf, *p...)
		return
	}
	c.check(n <= len(c.buf), "sim: snapshot payload truncated")
	if c.err == nil {
		*p = string(c.take(n))
	}
}

// bench codes a job's benchmark, which must lie in the domain where the
// curve resolved from it is finite and positive.
func (c *snapCodec) bench(b *workload.Benchmark) {
	c.str(&b.Name)
	u32(c, &b.Class)
	f64(c, &b.MeanDuration)
	f64(c, &b.PowerAt90C)
	f64(c, &b.FreqSensitivity)
	f64(c, &b.SocketTDP)
	c.check(finite(b.MeanDuration) && b.MeanDuration >= 0 && finite(b.SocketTDP) && b.SocketTDP >= 0 &&
		finite(b.PowerAt90C) && b.DynMax() > 0 && b.FreqSensitivity >= 0 && b.FreqSensitivity <= 1,
		"sim: snapshot benchmark %q outside the model's domain (mean duration %v, %v at 90C, frequency sensitivity %v, socket TDP %v)",
		b.Name, b.MeanDuration, b.PowerAt90C, b.FreqSensitivity, b.SocketTDP)
}

// job codes a job record; decoding allocates the job.
func (c *snapCodec) job(p **job.Job) {
	if !c.enc {
		*p = new(job.Job)
	}
	j := *p
	u64(c, &j.ID)
	c.bench(&j.Benchmark)
	f64(c, &j.Arrival)
	f64(c, &j.NominalDuration)
	f64(c, &j.Work)
	f64(c, &j.Started)
	f64(c, &j.Done)
}

func (c *snapCodec) welford(w *metrics.WelfordState) {
	f64(c, &w.WSum)
	f64(c, &w.Mean)
	f64(c, &w.M2)
}

// zone codes one zone-table key. Zones must lie in [1, depth] and ascend
// strictly (prev is the previous key, 0 before the first): the collector
// indexes dense per-zone slices by them.
func (c *snapCodec) zone(p, prev *int, depth int) {
	u64(c, p)
	c.check(*p > *prev && *p <= depth, "sim: snapshot zone %d after zone %d (zones are 1..%d, ascending)", *p, *prev, depth)
	*prev = *p
}
