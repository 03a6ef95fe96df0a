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
// This generalizes settled-stride from "idle dead tail at end of run" to
// "any inter-event gap under a fixed point", including fully-busy plateaus
// where every socket grinds at a stable frequency.

import "densim/internal/units"

// eventGapAdvance advances the clock tick by tick while the next indexed
// event lies beyond the tick boundary and every lane is settled. It returns
// advanced=true if at least one tick was executed (the caller re-enters the
// loop top so fault application and stride checks re-run), and done=true if
// the run terminated inside the gap (finished or drain limit).
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
//   - powerManagerTick runs verbatim too; with all lanes settled it takes
//     the same all-settled skip branch the normal loop would, including its
//     telemetry (OnSettledTick, OnTick, OnLaneSkips, the sampled lane-rise
//     scan and Flush cadence via telTicks). Nothing in a gap tick writes
//     power or toggles busy state, so the fixed point survives the tick.
//   - A migration boundary (now >= nextMigration after the tick) or a fault
//     step falling due (nextStepTime <= now at the tick's start, matching
//     the loop-top applyFaults condition) breaks back to the full loop
//     before the tick that would observe it; an inlet ramp in flight
//     disengages the gap entirely since applyFaults mutates state per tick.
//   - The Probe and Checks hooks are nil whenever settled tracking is
//     armed (resolveEngine disarms it under either), so no per-tick
//     observer is skipped.
func (s *Simulator) eventGapAdvance(until, tick, hardStop units.Seconds) (advanced, done bool) {
	if !s.eng.allSettled() {
		return false, false
	}
	arrT := s.nextArrivalTime()
	mig := s.cfg.Migration.Period > 0
	for {
		if s.now >= until {
			return advanced, false
		}
		if s.flt != nil && (s.flt.rampActive || s.flt.nextStepTime() <= s.now) {
			return advanced, false
		}
		tickEnd := s.now + tick
		next := arrT
		if compT, _ := s.comp.min(); compT < next {
			next = compT
		}
		if next < tickEnd {
			return advanced, false
		}
		if mig && tickEnd >= s.nextMigration {
			return advanced, false
		}
		tickStart := s.now
		s.advanceAllTo(tickEnd)
		s.now = tickEnd
		if s.flt != nil {
			s.accrueFanEnergy(tickStart, tickEnd)
		}
		s.powerManagerTick(tick)
		if s.tel != nil {
			s.tel.OnEventTick()
		}
		advanced = true
		if s.finished() || s.now >= hardStop {
			return true, true
		}
	}
}
