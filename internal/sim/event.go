package sim

// The unified event queue: when every lane sits at a bit-exact thermal fixed
// point, the only things that can change the simulation's observable state
// are the discrete events already indexed by the engine — the next arrival
// (source.Peek), the earliest completion (the doneAt min-heap), the next
// fault-timeline step, a migration epoch boundary, and the run-window limits
// (until / DrainLimit / Duration). eventGapAdvance merges those five streams
// into one time-ordered bound and marches the clock straight through the gap
// between now and the earliest of them, executing only the per-tick float
// accumulation (work accrual, energy ledgers, Welford updates) that the
// metrics contract requires to be replayed tick by tick. Everything the full
// loop body would additionally do in that span — event processing, the
// power-manager sweep, migrations, fault application — is provably an
// identity or out of reach before the bound, so the gap ticks skip straight
// to the settled-tick bookkeeping.
//
// The gap advance holds under two licences: "settled", every lane at its
// fixed point, which covers any inter-event gap (busy plateaus included);
// and "unobservable", a dead tail (deadTail) whose thermal field nothing
// reads before the run ends, so its ticks skip the sweep altogether.

import (
	"math"

	"densim/internal/units"
)

// deadTail reports the gap advance's second licence. Only Run and Finish
// qualify (until == neverDone), so the state RunTo leaves and Snapshot
// captures is always the tick-by-tick state. No Probe, Checks or telemetry
// (which samples every lane's ambient rise) may be installed. Nothing may be
// busy, queued, arriving or pending in the fault timeline, so every socket
// draws its constant idle power up to the horizon.
func (s *Simulator) deadTail(until units.Seconds) bool {
	return until == neverDone &&
		s.busyCount == 0 &&
		s.eng.skipTicks &&
		s.tel == nil &&
		s.queue.Len() == 0 &&
		math.IsInf(float64(s.nextArrivalTime()), 1) &&
		(s.flt == nil || s.flt.idle())
}

// eventGapAdvance advances the clock tick by tick while the next indexed
// event lies beyond the tick boundary and every lane is settled or the run
// is in a dead tail. It returns advanced=true if at least one tick was
// executed (the caller re-enters the loop top so fault application re-runs),
// and done=true if the run terminated inside the gap (finished or drain
// limit).
//
// Bit-exactness argument, per tick executed:
//   - processEventsUntil(tickEnd) is skipped only when min(arrival,
//     completion) >= tickEnd, exactly its strict t < end return condition —
//     it would have been a no-op. The arrival bound is hoisted out of the
//     loop (source.Peek is pure and constant until Next is called); the
//     completion bound is re-read every tick because advanceSocketTo
//     re-derives doneAt from accrued work and the last bit can drift.
//   - advanceAllTo / s.now / accrueFanEnergy run verbatim, in loop-body
//     order, so every float accumulation is the one the full loop performs.
//     In a dead tail on a homogeneous, fault-free server every socket adds
//     the same idle energy, so OnEnergyRepeat runs that chain of additions
//     and lastUpdate catches up once, on exit.
//   - Settled: powerManagerTick runs verbatim and takes the all-settled
//     skip branch the normal loop would, telemetry included (OnSettledTick,
//     OnTick, OnLaneSkips, the lane-rise scan and Flush cadence). Nothing in
//     a gap tick writes power or toggles busy state, so the fixed point
//     survives the tick.
//   - Dead tail: powerManagerTick is skipped. Idle draw does not depend on
//     thermal state, so no power or energy addition changes, and nothing
//     installed reads that state before the run ends.
//   - A migration boundary (now >= nextMigration after the tick) or a fault
//     step falling due (nextStepTime <= now at the tick's start, matching
//     the loop-top applyFaults condition) breaks back to the full loop
//     before the tick that would observe it; an inlet ramp in flight
//     disengages the gap entirely since applyFaults mutates state per tick.
//   - The Probe and Checks hooks are nil under either licence
//     (resolveEngine disarms skipTicks under either).
func (s *Simulator) eventGapAdvance(until, tick, hardStop units.Seconds) (advanced, done bool) {
	tail := s.deadTail(until)
	if !tail && !s.eng.allSettled() {
		return false, false
	}
	repeat := tail && !s.hetero && s.flt == nil
	warmup := s.cfg.Warmup
	arrT := s.nextArrivalTime()
	mig := s.cfg.Migration.Period > 0
	for !done {
		if s.now >= until || s.flt != nil && (s.flt.rampActive || s.flt.nextStepTime() <= s.now) {
			break
		}
		tickEnd := s.now + tick
		next := arrT
		if compT, _ := s.comp.min(); compT < next {
			next = compT
		}
		if next < tickEnd || mig && tickEnd >= s.nextMigration {
			break
		}
		tickStart := s.now
		if repeat {
			// advanceAllTo's idle accrual with lastUpdate == tickStart on
			// every socket: one identical addition per socket.
			if tickEnd > warmup {
				seg := tickEnd - tickStart
				if tickStart < warmup {
					seg = tickEnd - warmup
				}
				s.col.OnEnergyRepeat(units.Joules(float64(s.gatedPow[0])*float64(seg)), len(s.sockets))
			}
		} else {
			s.advanceAllTo(tickEnd)
		}
		s.now = tickEnd
		if s.flt != nil {
			s.accrueFanEnergy(tickStart, tickEnd)
		}
		if !tail {
			s.powerManagerTick(tick)
			if s.tel != nil {
				s.tel.OnEventTick()
			}
		}
		advanced = true
		done = s.finished() || s.now >= hardStop
	}
	if repeat && advanced {
		for i := range s.sockets {
			s.sockets[i].lastUpdate = s.now
		}
	}
	return advanced, done
}
