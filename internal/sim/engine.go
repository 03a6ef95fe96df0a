package sim

// The execution engine: how one run's tick loop is executed, independently
// of what it computes. Two engines exist, bit-identical by construction
// (the golden digests and the equivalence matrix are the oracle):
//
//   - serial: the pristine reference path, kept as the oracle the
//     equivalence tests compare the event engine against. Dense ambient
//     recompute every tick, ascending-ID sweep, no skips.
//
//   - event (the default): the same sweep with two exact shortcuts, plus
//     a second licence for the second one.
//
//     Dirty-lane incremental advection. The airflow network is independent
//     per channel (row x lane), so a channel whose socket powers are
//     bit-unchanged since its last ambient recompute would recompute the
//     exact same ambients — the engine skips it (ε = 0: the skip criterion
//     is value equality, not a tolerance). All power writes funnel through
//     Simulator.setPower, which marks the owning channel dirty on change.
//     Channel c is laneIdx value c and owns the contiguous socket ID range
//     [c*Depth, (c+1)*Depth): airflow.New enumerates channels row-major
//     and geometry.New numbers sockets the same way (TestChannelLayout
//     pins both), so the channel-order sweep is the serial ascending-ID sweep.
//
//     Settled lanes and the unified event queue. A channel whose last sweep
//     was a bit-exact identity is settled; while every channel is settled
//     the whole sweep is skipped, and the loop advances straight from event
//     to event through the gap (event.go).
//
//     The dead-tail licence. Once arrivals are exhausted, the queue is
//     empty and no socket is busy, the gap advance may also march through
//     lanes that are not settled, provided nothing installed reads the
//     thermal field (no Probe, Checks or telemetry) and the loop runs to
//     the end of the run. Idle draw does not depend on the thermal state,
//     so only the idle-energy accrual is replayed and the sweep is skipped.
//
// The event engine arms tick skipping (the settled skip and both licences)
// unless a Probe or the invariant harness observes every tick, so a run
// resolves to serial, or event with or without tick skipping.
//
// Parallelism lives above a run, not inside it: experiments.Runner runs
// sweep cells and seeds concurrently, and the fleet pool shards chassis.
// Neither needs a per-tick barrier.

import (
	"fmt"

	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/units"
	"densim/internal/workload"
)

// Engine modes accepted by EngineConfig.
const (
	// EngineEvent is the default engine ("" selects it): the incremental
	// sweep plus the unified event queue (event.go), which advances the
	// clock straight from event to event while every lane holds a bit-exact
	// fixed point.
	EngineEvent = "event"
	// EngineSerial is the pristine reference sweep.
	EngineSerial = "serial"
)

// EngineConfig selects how the tick loop executes. The zero value is the
// event engine. Both engines produce bit-identical results; the choice
// trades speed for a reference to check against, never accuracy.
type EngineConfig struct {
	// Mode is "" or "event" (the default), or "serial". A Probe or the
	// invariant harness observes every tick, so either one disables the
	// event engine's tick skipping. Installed telemetry samples the thermal
	// field, so it disables only the dead-tail licence: an instrumented run
	// sweeps its dead tail until the lanes settle.
	Mode string
}

// Validate checks the mode.
func (e EngineConfig) Validate() error {
	switch e.Mode {
	case "", EngineEvent, EngineSerial:
		return nil
	}
	return fmt.Errorf("sim: unknown engine mode %q (have event, serial)", e.Mode)
}

// engineState is the resolved engine for one run.
type engineState struct {
	// incremental selects the dirty-lane sweep and the pick cache; false
	// is the pristine serial path.
	incremental bool
	// skipTicks arms tick skipping: the event engine with no Probe or
	// Checks observing individual ticks. It licenses the gap advance over a
	// dead tail (deadTail) and arms laneSettled, the fixed-point proof
	// behind the all-settled skip and the gap advance over settled lanes.
	skipTicks bool

	// dirty[ch] records that channel ch's powers changed since its last
	// ambient recompute; it has one entry per airflow channel. Nil unless
	// incremental.
	dirty []bool
	// laneSettled[ch] records that channel ch's last sweep was a bit-exact
	// identity (clean channel, no socket field changed). While every lane is
	// settled the whole sweep is a no-op and the engine skips it outright.
	// Nil unless skipTicks; cleared by every power write and busy
	// transition touching the channel.
	laneSettled []bool

	// Pick cache (nil unless incremental): a busy socket's pick is a pure
	// function of (benchmark, ambient bits, boost cap), so while those are
	// unchanged the cached frequency is exact. Entries are valid only while
	// the socket continuously runs the same job — completions and migration
	// sources invalidate, so a recycled *Job allocation can never alias a
	// stale entry.
	pickBench []*workload.Benchmark
	pickAmb   []units.Celsius
	pickCap   []units.MHz
	pickIdx   []int8
	pickFreq  []units.MHz
	// shared engages the admiss cache's shared bounds pool and ladder
	// table, whose bounds are exact only under one leakage curve (so not
	// under heterogeneous SKUs). pickLad[i]/pickThr[i] then hold the ladder
	// row and boundary snapshot for pickBench[i]'s power curve under socket
	// i's sink. The pool and both rows are allocated on the first
	// cache-missed pick, so a simulator that never steps pays nothing.
	shared  bool
	pickLad [][]units.Watts
	pickThr []chipmodel.BoundsRow
	// admiss caches exact admissibility verdicts per (socket, P-state) so
	// cache-missed picks rarely pay the leakage exponential (see
	// chipmodel.AdmissCache).
	admiss *chipmodel.AdmissCache
}

// resolveEngine turns the configured EngineConfig into the run's engine
// state. Called from New once the airflow model and laneIdx exist.
func (s *Simulator) resolveEngine() {
	e := &s.eng
	e.incremental = s.cfg.Engine.Mode != EngineSerial
	// A Probe and the invariant harness observe every tick; skipping ticks
	// would hide them, so their presence disables it outright.
	e.skipTicks = e.incremental && s.cfg.Probe == nil && s.cfg.Checks == nil
	if !e.incremental {
		return
	}
	e.dirty = make([]bool, s.af.NumChannels())
	for c := range e.dirty {
		e.dirty[c] = true // ambBuf holds nothing yet
	}
	if e.skipTicks {
		e.laneSettled = make([]bool, len(e.dirty))
	}
	n := len(s.sockets)
	e.pickBench = make([]*workload.Benchmark, n)
	e.pickAmb = make([]units.Celsius, n)
	e.pickCap = make([]units.MHz, n)
	e.pickIdx = make([]int8, n)
	e.pickFreq = make([]units.MHz, n)
	e.admiss = chipmodel.NewAdmissCache(n)
	e.shared = !s.hetero
}

// allSettled reports that the previous sweep was an identity on every lane:
// re-running it would change nothing, so the engine may skip it. Any power
// write or busy transition since then has cleared the affected lane's flag.
func (e *engineState) allSettled() bool {
	if e.laneSettled == nil {
		return false
	}
	for _, ok := range e.laneSettled {
		if !ok {
			return false
		}
	}
	return true
}

// unsettle clears socket i's lane settled flag. Called from every event-path
// write that changes the sweep's inputs (power writes, busy transitions).
func (s *Simulator) unsettle(i int) {
	if ls := s.eng.laneSettled; ls != nil {
		ls[s.laneIdx[i]] = false
	}
}

// invalidatePick drops socket i's cached pick. Must be called on every
// busy -> idle transition so a recycled job allocation can never match a
// stale benchmark pointer.
func (e *engineState) invalidatePick(i int) {
	if e.pickBench != nil {
		e.pickBench[i] = nil
	}
}

// pickFrequency is the engine's frequency dispatcher: the reference pick in
// serial mode, the cached/warm-started path otherwise. Both return the exact
// frequency pickFrequencyIndexed does.
func (s *Simulator) pickFrequency(id geometry.SocketID) units.MHz {
	if !s.eng.incremental {
		return s.pickFrequencyIndexed(id)
	}
	return s.enginePick(int(id))
}

// enginePick returns pickFrequencyIndexed's Table III pick through two
// exact shortcuts: a full-input cache hit returns the stored frequency
// (pure function of the key), and a miss warm-starts the monotone ladder
// search from the previous pick's index
// (chipmodel.HighestAdmissibleFrom returns exactly what the cold search
// would).
func (s *Simulator) enginePick(i int) units.MHz {
	e := &s.eng
	bench := &s.jobs[i].Benchmark
	ambient := s.amb[i]
	cap := s.caps[i]
	if e.pickBench[i] == bench && e.pickAmb[i] == ambient && e.pickCap[i] == cap {
		return e.pickFreq[i]
	}
	sink := s.srv.Sink(geometry.SocketID(i))
	leak := s.leakAt[i]
	hint := -1
	if e.pickBench[i] == bench {
		hint = int(e.pickIdx[i])
	} else if e.shared {
		if e.pickLad == nil {
			n := len(s.sockets)
			e.admiss.EnableSharedPool()
			e.pickLad = make([][]units.Watts, n)
			e.pickThr = make([]chipmodel.BoundsRow, n)
		}
		e.pickLad[i], e.pickThr[i] = e.admiss.LadderBounds(bench.DynMax(), func(k int) units.Watts {
			return bench.DynamicPowerAt(chipmodel.Frequencies[k])
		}, sink, leak)
	}
	admiss := e.admiss
	var idx int
	if e.shared {
		lad, thr := e.pickLad[i], e.pickThr[i]
		idx = chipmodel.HighestAdmissibleFrom(hint, chipmodel.CapIndex(cap), func(k int) bool {
			return admiss.AdmissibleRow(thr, i, k, ambient, lad[k], sink, leak)
		})
	} else {
		idx = chipmodel.HighestAdmissibleFrom(hint, chipmodel.CapIndex(cap), func(k int) bool {
			dyn := bench.DynamicPowerAt(chipmodel.Frequencies[k])
			return admiss.Admissible(i, k, ambient, dyn, sink, leak)
		})
	}
	f := chipmodel.FMin
	if idx >= 0 {
		f = chipmodel.Frequencies[idx]
	}
	e.pickBench[i] = bench
	e.pickAmb[i] = ambient
	e.pickCap[i] = cap
	e.pickIdx[i] = int8(idx)
	e.pickFreq[i] = f
	return f
}

// ensureTickGains hoists the four first-order blend factors for the fixed
// tick period (shared by the serial and incremental sweeps).
func (s *Simulator) ensureTickGains(dt units.Seconds) {
	if s.tickGains.dt == dt {
		return
	}
	s.tickGains.dt = dt
	s.tickGains.sink = chipmodel.FirstOrder{Tau: s.cfg.SinkTau}.Gain(dt)
	s.tickGains.chip = chipmodel.FirstOrder{Tau: s.cfg.ChipTau}.Gain(dt)
	s.tickGains.hist = chipmodel.FirstOrder{Tau: s.cfg.HistoryTau}.Gain(dt)
	s.tickGains.util = chipmodel.FirstOrder{Tau: s.cfg.BoostWindow}.Gain(dt)
}

// tickChannels runs the per-socket thermal/DVFS sweep over every channel:
// the dirty-gated ambient recompute, the four first-order blends, and the
// frequency re-pick with its heap refresh and throttle telemetry, in the
// serial ascending-ID order. It returns the number of channels whose
// ambient recompute the dirty gate skipped.
func (s *Simulator) tickChannels() (skipped int64) {
	e := &s.eng
	ambients := s.ambBuf
	kSink, kChip := s.tickGains.sink, s.tickGains.chip
	kHist, kUtil := s.tickGains.hist, s.tickGains.util
	track := e.laneSettled != nil
	// Hoist the structure-of-arrays slices once: the channel's sockets are a
	// contiguous ID range, so the inner loop below walks each slice linearly
	// with the bounds checks lifted out of the per-socket body.
	amb, chip, hist := s.amb, s.chip, s.hist
	util, pewma, freqs := s.util, s.pewma, s.freq
	powers, caps, jobs := s.powers, s.caps, s.jobs
	depth := s.srv.Depth
	for ch := range e.dirty {
		settled := track && !e.dirty[ch]
		if e.dirty[ch] {
			s.af.AmbientChannelInto(ch, s.powers, ambients)
			e.dirty[ch] = false
		} else {
			skipped++
		}
		for i := ch * depth; i < (ch+1)*depth; i++ {
			id := geometry.SocketID(i)
			busy := jobs[i] != nil
			sink := s.srv.Sink(id)
			prevAmb, prevChip := amb[i], chip[i]
			prevPE, prevHist := pewma[i], hist[i]
			prevUtil, prevFreq, prevPower := util[i], freqs[i], powers[i]

			amb[i] = chipmodel.StepWithGain(prevAmb, ambients[i], kSink)
			chipTarget := chipmodel.PeakTemp(amb[i], prevPower, sink)
			chip[i] = chipmodel.StepWithGain(prevChip, chipTarget, kChip)
			pewma[i] = units.Watts(chipmodel.StepWithGain(units.Celsius(prevPE), units.Celsius(prevPower), kSink))
			// The socket temperature on the already-updated ambient and
			// power EWMA: the one StateVectors expression the serial sweep
			// evaluates too.
			hist[i] = chipmodel.StepWithGain(prevHist, s.vec.SocketTemp(id), kHist)
			target := units.Celsius(0)
			if busy {
				target = 1
			}
			util[i] = float64(chipmodel.StepWithGain(units.Celsius(prevUtil), target, kUtil))
			caps[i] = s.capFor(i, util[i])

			if busy {
				if f := s.pickFrequency(id); f != freqs[i] {
					if s.tel != nil {
						s.tel.OnThrottle(s.now, i, freqs[i], f)
					}
					freqs[i] = f
					s.refreshDoneAt(i)
				}
				s.setPower(i, s.busyPower(i))
			} else {
				s.setPower(i, s.idlePow(i))
			}
			// The channel settles when the sweep was a bit-exact identity on
			// every socket it owns: re-running it would change nothing.
			if settled && (amb[i] != prevAmb || chip[i] != prevChip ||
				pewma[i] != prevPE || hist[i] != prevHist ||
				util[i] != prevUtil || freqs[i] != prevFreq || powers[i] != prevPower) {
				settled = false
			}
		}
		// A sweep that was not a bit-exact identity may have changed
		// scheduler-visible state (ambients, utilization EWMAs): advance the
		// channel's epoch.
		if !settled {
			s.laneEpoch[ch]++
		}
		if track {
			e.laneSettled[ch] = settled
		}
	}
	return skipped
}

// powerManagerTickIncremental is the event engine's power-manager tick.
// Bit-identical to powerManagerTickSerial.
func (s *Simulator) powerManagerTickIncremental(dt units.Seconds) {
	s.ensureTickGains(dt)
	e := &s.eng
	var skipped int64
	if e.allSettled() {
		// Every lane's last sweep was an identity and nothing has written to
		// the sweep's inputs since: the whole sweep — ambient recompute,
		// blends, picks, power writes — would reproduce the current state
		// bit-for-bit, so skip it. Every channel counts as skipped, matching
		// what the dirty gate would have reported.
		skipped = int64(len(e.dirty))
		if s.tel != nil {
			s.tel.OnSettledTick()
		}
	} else {
		skipped = s.tickChannels()
	}
	if s.checks != nil {
		s.auditTick()
	}
	if s.tel != nil {
		s.tel.OnTick()
		if skipped > 0 {
			s.tel.OnLaneSkips(skipped)
		}
		s.telTicks++
		if s.telTicks&7 == 0 {
			for i := range s.sockets {
				s.tel.ObserveLaneRise(int(s.laneIdx[i]), float64(s.amb[i])-s.inletC)
			}
			s.tel.Flush()
		}
	}
}
