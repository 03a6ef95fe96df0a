package sim

// This file is the engine side of fault injection: the runtime state compiled
// from a fault.Spec and the tick-boundary application of its steps. Faults
// ride the ordinary tick path — applyFaults runs at the top of every loop
// iteration, so a fault lands at the first tick boundary at or after its
// scheduled instant, identically on every engine. Each fault funnels its
// effect through the same seams the nominal run uses (setPower, unsettle,
// dirty lanes, the thermal chain), so the bit-exact engine contract extends
// to faulted runs for free.

import (
	"fmt"

	"densim/internal/airflow"
	"densim/internal/fan"
	"densim/internal/fault"
	"densim/internal/units"
)

// faultState is the live fault-injection state of one run.
type faultState struct {
	spec   *fault.Spec
	steps  []fault.Step
	cursor int

	// Fan bank: sized so the bank delivers the scenario's nominal flow at
	// the spec's nominal duty fraction. requiredCFM is the chassis demand
	// (constant); working/derate track fail/degrade events; flowFactor is
	// the delivered/required ratio currently applied to the airflow model
	// (exactly 1.0 while the bank keeps up).
	bank        fan.Bank
	requiredCFM units.CFM
	working     int
	derate      float64
	flowFactor  float64
	fanPowerW   units.Watts
	fanEnergyJ  units.Joules

	// Inlet transient: curInlet is the inlet currently applied to the
	// airflow model; a ramp interpolates linearly from rampFrom to rampTo
	// over [rampStart, rampStart+rampLen].
	baseInlet  units.Celsius
	curInlet   units.Celsius
	rampActive bool
	rampStart  units.Seconds
	rampLen    units.Seconds
	rampFrom   units.Celsius
	rampTo     units.Celsius

	// Socket faults.
	dead      []bool
	deadCount int
	capped    []bool
	requeues  int
}

// idle reports that the timeline is exhausted and no transient is in flight —
// one condition of the gap advance's dead-tail licence (deadTail).
func (f *faultState) idle() bool {
	return f.cursor >= len(f.steps) && !f.rampActive
}

// nextStepTime returns the instant of the earliest unapplied timeline step,
// +inf when the timeline is exhausted. The event engine's gap advance stops
// at this boundary so applyFaults runs at exactly the tick it would have.
func (f *faultState) nextStepTime() units.Seconds {
	if f.cursor >= len(f.steps) {
		return neverDone
	}
	return f.steps[f.cursor].At
}

// initFaults builds the fault runtime from Config.Faults. Called from New
// after the thermal chain and per-socket constants exist.
func (s *Simulator) initFaults() error {
	spec := s.cfg.Faults
	n := s.srv.NumSockets()
	if err := spec.Validate(n); err != nil {
		return err
	}
	f := &faultState{
		spec:       spec,
		steps:      spec.Compile(s.cfg.Duration),
		working:    spec.FanCount,
		derate:     1,
		flowFactor: 1,
		baseInlet:  s.cfg.Airflow.Inlet,
		curInlet:   s.cfg.Airflow.Inlet,
		dead:       make([]bool, n),
		capped:     make([]bool, n),
	}
	if spec.FanCount > 0 {
		// Provision the bank so that at the nominal duty fraction it moves
		// exactly the chassis demand: per-fan rated flow is demand spread
		// over the bank with 1/NominalFrac headroom. The healthy operating
		// point is then strictly inside the (floor, rated) interval, so the
		// unfaulted flow factor is exactly 1 by construction.
		total := float64(s.cfg.Airflow.FlowPerLane) * float64(s.srv.Rows*s.srv.Lanes)
		shape := fan.ActiveCool()
		shape.RatedCFM = units.CFM(total / (float64(spec.FanCount) * spec.NominalFrac()))
		f.bank = fan.Bank{Fan: shape, Count: spec.FanCount}
		if err := f.bank.Validate(); err != nil {
			return fmt.Errorf("sim: fault fan bank: %w", err)
		}
		f.requiredCFM = units.CFM(total)
		f.fanPowerW = f.bank.Operate(f.requiredCFM, f.working, 1).PowerW
	}
	s.flt = f
	if s.checks != nil {
		s.checks.SetFanAudit(f.bank, f.requiredCFM, spec.FanCount > 0)
		if spec.FanCount > 0 {
			s.checks.OnFanPoint(f.working, f.derate, f.fanPowerW, 0)
		}
	}
	return nil
}

// applyFaults drains every compiled step due at or before the current clock
// and advances any inlet ramp in flight. Runs at the top of each tick-loop
// iteration; cost is two comparisons when nothing is pending.
func (s *Simulator) applyFaults() {
	f := s.flt
	flowChanged := false
	mutated := false
	for f.cursor < len(f.steps) && f.steps[f.cursor].At <= s.now {
		mutated = true
		st := &f.steps[f.cursor]
		f.cursor++
		if s.checks != nil {
			s.checks.OnFaultEvent(s.now)
		}
		if s.tel != nil {
			s.tel.OnFaultEvent()
		}
		switch st.Kind {
		case fault.KindFanDegrade:
			f.derate = st.Factor
			flowChanged = true
		case fault.KindFanFail:
			f.working -= st.Fans
			if f.working < 1 {
				f.working = 1 // Validate rejects this; belt and suspenders
			}
			flowChanged = true
		case fault.KindFanRecover:
			f.working = f.spec.FanCount
			f.derate = 1
			flowChanged = true
		case fault.KindInletRamp:
			f.rampActive = true
			f.rampStart = s.now
			f.rampLen = st.Ramp
			f.rampFrom = f.curInlet
			f.rampTo = f.curInlet + st.DeltaC
		case fault.KindSocketDeath:
			s.killSocket(st.Socket)
		case fault.KindThrottle:
			if !f.capped[st.Socket] {
				f.capped[st.Socket] = true
				s.caps[st.Socket] = s.capFor(st.Socket, s.util[st.Socket])
				s.eng.unsettle(st.Socket)
			}
		case fault.KindThrottleEnd:
			if f.capped[st.Socket] {
				f.capped[st.Socket] = false
				s.caps[st.Socket] = s.capFor(st.Socket, s.util[st.Socket])
				s.eng.unsettle(st.Socket)
			}
		}
	}
	if f.rampActive {
		t := f.rampTo
		if f.rampLen > 0 && s.now < f.rampStart+f.rampLen {
			frac := float64(s.now-f.rampStart) / float64(f.rampLen)
			t = f.rampFrom + units.Celsius(frac*float64(f.rampTo-f.rampFrom))
		} else {
			f.rampActive = false
		}
		if t != f.curInlet {
			f.curInlet = t
			mutated = true
			if s.checks != nil {
				s.checks.OnInletChange(t, s.now)
			}
			if !flowChanged {
				// Inlet enters the advection recurrences additively at eval
				// time, so an in-place mutation is exact — no rebuild. Every
				// cached ambient is stale, though: dirty everything.
				s.af.SetInlet(t)
				s.allDirty()
			}
		}
	}
	if flowChanged {
		s.recomputeFanPoint()
		s.applyFlowPhysics()
	}
	if mutated {
		// Any applied step can change scheduler-visible state outside the
		// sweep's view (throttle caps, socket death, inlet): conservatively
		// age every cached lane-epoch prediction.
		s.bumpAllLanes()
	}
}

// recomputeFanPoint re-derives the bank's operating point after a fan event.
// The flow factor is held at exactly 1.0 while the bank meets demand (the
// clamp-free Operate point delivers the request by construction; going
// through the division would invite FP wobble into the unfaulted path).
func (s *Simulator) recomputeFanPoint() {
	f := s.flt
	if f.spec.FanCount <= 0 {
		return
	}
	p := f.bank.Operate(f.requiredCFM, f.working, f.derate)
	f.fanPowerW = p.PowerW
	if p.AtFloor || p.Saturated {
		f.flowFactor = float64(p.Delivered) / float64(f.requiredCFM)
	} else {
		f.flowFactor = 1
	}
	if s.checks != nil {
		s.checks.OnFanPoint(f.working, f.derate, f.fanPowerW, s.now)
	}
}

// applyFlowPhysics rebuilds the airflow network at the current delivered
// flow and inlet. Flow scales the advection rates baked into the model at
// construction, so a flow change needs a rebuild (always from the original
// config — factors never compound). The rebuild preserves geometry, so the
// incremental engine's channel layout is unchanged; every lane is dirtied.
func (s *Simulator) applyFlowPhysics() {
	f := s.flt
	p := s.cfg.Airflow
	p.Inlet = f.curInlet
	if f.flowFactor != 1 {
		p.FlowPerLane = units.CFM(float64(p.FlowPerLane) * f.flowFactor)
	}
	af, err := airflow.New(s.srv, p)
	if err != nil {
		// Config validated at New; a derated rebuild can only fail on a
		// degenerate factor, which Validate excludes.
		panic(fmt.Sprintf("sim: fault airflow rebuild: %v", err))
	}
	s.af = af
	s.thermal = af
	if s.eng.afm != nil {
		s.eng.afm = af
	}
	s.allDirty()
}

// allDirty invalidates every cached lane ambient and settled flag — the
// thermal substrate changed under the whole chassis.
func (s *Simulator) allDirty() {
	for ch := range s.eng.dirty {
		s.eng.dirty[ch] = true
	}
	for ch := range s.eng.laneSettled {
		s.eng.laneSettled[ch] = false
	}
}

// killSocket applies a socket-death fault: the victim's job (if any) is
// requeued with its remaining work intact, the socket leaves both the idle
// set and the busy count — dead is a third state the scheduler never sees
// (Busy reports it busy) — and its draw drops to zero.
func (s *Simulator) killSocket(i int) {
	f := s.flt
	if f.dead[i] {
		return
	}
	s.advanceSocketTo(i, s.now)
	j := s.jobs[i]
	if j != nil {
		s.jobs[i] = nil
		s.freq[i] = 0
		s.busyCount--
		s.eng.unsettle(i)
		s.eng.invalidatePick(i)
		s.setDoneAt(i, neverDone)
		f.requeues++
		if s.checks != nil {
			s.checks.OnRequeue(int64(j.ID), s.now)
		}
		if s.tel != nil {
			s.tel.OnRequeue()
		}
		s.queue.Push(j)
	} else {
		// markBusy removes the socket from the idle set (and bumps the busy
		// count, which we undo): dead is neither idle nor busy.
		s.markBusy(i)
		s.busyCount--
		s.eng.invalidatePick(i)
	}
	f.dead[i] = true
	f.deadCount++
	if s.checks != nil {
		s.checks.MarkDead(i, s.now)
	}
	s.setPower(i, 0)
	if j != nil {
		s.drainQueue(s.now)
	}
}

// accrueFanEnergy charges the bank's electrical draw for one tick, clipped
// to the post-warmup span like every other energy account. Fan energy is a
// side ledger (not part of metrics.Result), so unfaulted runs and their
// golden digests are untouched.
func (s *Simulator) accrueFanEnergy(from, to units.Seconds) {
	f := s.flt
	if f.spec.FanCount <= 0 || to <= s.cfg.Warmup {
		return
	}
	if from < s.cfg.Warmup {
		from = s.cfg.Warmup
	}
	f.fanEnergyJ += units.Joules(float64(f.fanPowerW) * float64(to-from))
	if s.checks != nil {
		s.checks.OnFanSegment(from, to, s.now)
	}
}

// FanPowerW returns the chassis fan bank's current electrical draw (zero
// without a fan model).
func (s *Simulator) FanPowerW() units.Watts {
	if s.flt == nil {
		return 0
	}
	return s.flt.fanPowerW
}

// FanEnergyJ returns the accumulated post-warmup fan energy.
func (s *Simulator) FanEnergyJ() units.Joules {
	if s.flt == nil {
		return 0
	}
	return s.flt.fanEnergyJ
}

// Requeues returns how many jobs socket-death faults displaced.
func (s *Simulator) Requeues() int {
	if s.flt == nil {
		return 0
	}
	return s.flt.requeues
}

// DeadSockets returns how many sockets have died so far.
func (s *Simulator) DeadSockets() int {
	if s.flt == nil {
		return 0
	}
	return s.flt.deadCount
}

// FlowFactor returns the delivered/required airflow ratio currently applied
// (exactly 1 while the bank keeps up, or without a fan model).
func (s *Simulator) FlowFactor() float64 {
	if s.flt == nil {
		return 1
	}
	return s.flt.flowFactor
}

// InletNow returns the inlet temperature currently applied to the airflow
// model (the base inlet unless an inlet-ramp fault moved it).
func (s *Simulator) InletNow() units.Celsius {
	if s.flt == nil {
		return s.cfg.Airflow.Inlet
	}
	return s.flt.curInlet
}
