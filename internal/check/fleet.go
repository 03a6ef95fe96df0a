package check

// The fleet-level closure audit: the conservation law one level above the
// per-run job-count closure. A fleet run splits one arrival stream across
// chassis; every streamed job must be dispatched to exactly one chassis,
// every dispatched job must arrive at its chassis simulator, and each
// chassis's completions plus leftovers can never exceed what arrived. A
// violation is a routing or replay bug in the fleet layer, not a simulation
// result — so it is an error, not a metric.

import "fmt"

// FleetClosure audits one fleet run's job accounting. All slices are indexed
// by chassis in the fleet's canonical order. streamed is the total fleet
// arrival count; dispatched, arrived, completed, and unfinished are the
// per-chassis counts.
func FleetClosure(streamed int, dispatched, arrived, completed, unfinished []int) error {
	n := len(dispatched)
	if len(arrived) != n || len(completed) != n || len(unfinished) != n {
		return fmt.Errorf("check: fleet closure: ragged inputs (%d/%d/%d/%d chassis)",
			n, len(arrived), len(completed), len(unfinished))
	}
	total := 0
	for i := 0; i < n; i++ {
		if dispatched[i] < 0 || arrived[i] < 0 || completed[i] < 0 || unfinished[i] < 0 {
			return fmt.Errorf("check: fleet closure: chassis %d has negative counts (dispatched=%d arrived=%d completed=%d unfinished=%d)",
				i, dispatched[i], arrived[i], completed[i], unfinished[i])
		}
		total += dispatched[i]
		if arrived[i] != dispatched[i] {
			return fmt.Errorf("check: fleet closure: chassis %d arrived %d != dispatched %d (replay loss)",
				i, arrived[i], dispatched[i])
		}
		if completed[i]+unfinished[i] > arrived[i] {
			return fmt.Errorf("check: fleet closure: chassis %d completed %d + unfinished %d > arrived %d",
				i, completed[i], unfinished[i], arrived[i])
		}
	}
	if total != streamed {
		return fmt.Errorf("check: fleet closure: dispatched %d jobs != streamed %d (routing loss)",
			total, streamed)
	}
	return nil
}

// EpochClosure audits one closed-loop epoch boundary: the conservation law
// FleetClosure enforces at end of run, checked at every observation point.
// epoch is the just-completed epoch index; windowStreamed is the number of
// stream arrivals that fell inside its window; windowDispatched is the
// per-chassis count routed during it (all slices canonical chassis order);
// cumDispatched is the running total routed to each chassis through this
// window; observedArrived is each chassis simulator's admitted-job count at
// the boundary. Because dispatch for a window happens before the window is
// simulated and every dispatched arrival lies strictly before the boundary,
// observed arrivals must exactly equal cumulative dispatched — any gap is a
// routing or replay bug in the fleet executor, caught at the first boundary
// it appears instead of at end of run.
func EpochClosure(epoch, windowStreamed int, windowDispatched, cumDispatched, observedArrived []int) error {
	n := len(windowDispatched)
	if len(cumDispatched) != n || len(observedArrived) != n {
		return fmt.Errorf("check: epoch closure: epoch %d: ragged inputs (%d/%d/%d chassis)",
			epoch, n, len(cumDispatched), len(observedArrived))
	}
	total := 0
	for i := 0; i < n; i++ {
		if windowDispatched[i] < 0 || cumDispatched[i] < 0 || observedArrived[i] < 0 {
			return fmt.Errorf("check: epoch closure: epoch %d: chassis %d has negative counts (window=%d cum=%d arrived=%d)",
				epoch, i, windowDispatched[i], cumDispatched[i], observedArrived[i])
		}
		total += windowDispatched[i]
		if windowDispatched[i] > cumDispatched[i] {
			return fmt.Errorf("check: epoch closure: epoch %d: chassis %d window dispatched %d > cumulative %d",
				epoch, i, windowDispatched[i], cumDispatched[i])
		}
		if observedArrived[i] != cumDispatched[i] {
			return fmt.Errorf("check: epoch closure: epoch %d: chassis %d observed arrived %d != cumulative dispatched %d (replay loss at boundary)",
				epoch, i, observedArrived[i], cumDispatched[i])
		}
	}
	if total != windowStreamed {
		return fmt.Errorf("check: epoch closure: epoch %d: dispatched %d jobs != window streamed %d (routing loss)",
			epoch, total, windowStreamed)
	}
	return nil
}
