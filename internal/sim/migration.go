package sim

import (
	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/sched"
	"densim/internal/units"
)

// Migration support — the paper's Section VI observation that "our
// scheduling strategy can just as easily be used to choose sockets for
// workload migration ... or even identify when migration would be
// profitable". When enabled, the simulator periodically re-evaluates
// running jobs: a job whose socket is throttled gets moved to an idle
// socket the configured scheduler picks, provided the predicted frequency
// gain clears a threshold and the job has enough work left to amortize the
// transfer cost.
//
// Migration matters exactly where the workload's heavy tail lives: the mean
// job is a few milliseconds and never sees a migration window, but the
// 100x-tail jobs (Figure 6) occupy sockets for hundreds of milliseconds —
// long enough for the thermal field to shift under them.

// MigrationConfig tunes the optional migration pass.
type MigrationConfig struct {
	// Period is how often running jobs are re-evaluated (0 disables
	// migration).
	Period units.Seconds
	// Cost is the work-time penalty a migrated job pays for state
	// transfer (default 0.5 ms).
	Cost units.Seconds
	// MinGainMHz is the predicted frequency improvement required to move
	// (default one P-state bin, 200 MHz).
	MinGainMHz float64
	// MinRemainingWork gates churn: jobs with less remaining work than
	// this multiple of Cost stay put (default 5x).
	MinRemainingWork float64
}

func (m MigrationConfig) withDefaults() MigrationConfig {
	if m.Cost <= 0 {
		m.Cost = 0.0005
	}
	if m.MinGainMHz <= 0 {
		m.MinGainMHz = 200
	}
	if m.MinRemainingWork <= 0 {
		m.MinRemainingWork = 5
	}
	return m
}

// runMigrations performs one migration pass at the current time. Each
// migration consumes one idle socket and frees its source back into the
// pool: the source was only throttled for the job it was running, and a
// later candidate with a lighter power curve may still gain by moving
// there (the predicted-gain gate rejects moves onto sockets that are
// thermally hopeless for that candidate). The pool is the live idle set,
// which migrate keeps sorted by ID as Pick requires.
func (s *Simulator) runMigrations() {
	if len(s.idleSockets()) == 0 {
		return
	}
	mc := s.cfg.Migration
	// The best any destination can offer is the boost ceiling of a fully
	// rested socket — MaxSustained when boost is disabled, FMax otherwise.
	// Jobs already there have nothing to gain and skip the scheduler call.
	maxFreq := s.boostCap(0)
	for i, j := range s.jobs {
		if j == nil {
			continue
		}
		if float64(j.Work) < mc.MinRemainingWork*float64(mc.Cost) {
			continue
		}
		curFreq := chipmodel.Frequencies[s.pstate[i]]
		if curFreq >= maxFreq {
			continue // nothing to gain
		}
		dest := s.cfg.Scheduler.Pick(s, j, s.idleSockets())
		// The destination's estimate as Predictive's score reads it: the
		// job's curve in the ladder search, capped at the socket's cap.
		predicted := min(sched.LadderFreq(s.curve[i].Index(dest, s.amb[dest])), s.caps[dest])
		if float64(predicted-curFreq) < mc.MinGainMHz {
			continue
		}
		// The destination leaves the idle set and the freed source joins
		// it, keeping the pool the same size for later candidates.
		s.migrate(geometry.SocketID(i), dest)
	}
}

// migrate moves the job on src to dst, charging the transfer cost.
func (s *Simulator) migrate(srcID, dstID geometry.SocketID) {
	j := s.jobs[srcID]

	// Settle accounting on both sockets up to now.
	s.advanceSocketTo(int(srcID), s.now)
	s.advanceSocketTo(int(dstID), s.now)

	// Source goes idle (gated).
	c := s.curve[srcID]
	s.jobs[srcID], s.curve[srcID] = nil, nil
	s.markIdle(int(srcID))
	s.setDoneAt(int(srcID), neverDone)
	s.setPower(int(srcID), s.idlePow(int(srcID)))

	// Transfer cost: the job pays extra work-time.
	j.Work += s.cfg.Migration.Cost

	// Destination starts the job at its locally picked frequency.
	s.jobs[dstID], s.curve[dstID] = j, c
	s.markBusy(int(dstID))
	s.pstate[dstID] = s.pickFrequency(dstID)
	s.refreshDoneAt(int(dstID))
	s.setPower(int(dstID), s.busyPower(int(dstID)))

	s.migrations++
	if s.checks != nil {
		s.checks.OnMigrate(int64(j.ID), s.cfg.Migration.Cost, s.now)
	}
	if s.tel != nil {
		s.tel.OnMigrate(s.now, int(srcID), int(dstID))
	}
}
