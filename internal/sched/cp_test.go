package sched

import (
	"testing"

	"densim/internal/chipmodel"
	"densim/internal/geometry"
)

func TestCPVariantNames(t *testing.T) {
	cases := map[string]CPOptions{
		"CP":              {},
		"CP-global":       {GlobalSearch: true},
		"CP-idleweighted": {IdleWeighted: true},
		"CP-nobudget":     {IgnoreBudget: true},
		"CP-nocoupling":   {NoCoupling: true},
	}
	for want, opts := range cases {
		if got := NewCouplingPredictorOpts(1, opts).Name(); got != want {
			t.Errorf("variant name = %q, want %q", got, want)
		}
	}
}

func TestCPVariantsResolveViaRegistry(t *testing.T) {
	for _, name := range []string{"CP-global", "CP-idleweighted", "CP-nobudget", "CP-nocoupling"} {
		s, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("ByName(%s).Name() = %s", name, s.Name())
		}
	}
	// Ablation variants are deliberately NOT in the paper's scheme list.
	for _, n := range Names() {
		if len(n) > 2 && n[:3] == "CP-" {
			t.Errorf("ablation variant %s leaked into Names()", n)
		}
	}
}

func TestCPGlobalSearchEscapesRow(t *testing.T) {
	// With idle sockets in many rows and one clearly superior candidate,
	// global search must find it regardless of the row lottery; the
	// row-restricted default may not.
	srv := geometry.SUT()
	fs := newFakeState(t, srv)
	for _, sk := range srv.Sockets() {
		fs.amb[sk.ID] = 70 // hot everywhere: throttled predictions
	}
	best := srv.SocketAt(9, 1, 1).ID
	fs.amb[best] = 20 // one cool 30-fin socket
	idle := idleSet(srv)
	global := NewCouplingPredictorOpts(3, CPOptions{GlobalSearch: true})
	for i := 0; i < 10; i++ {
		if got := global.Pick(fs, compJob(), idle); got != best {
			t.Fatalf("global CP picked %d, want %d", got, best)
		}
	}
}

func TestCPNoCouplingIgnoresDownwind(t *testing.T) {
	// Candidates: a zone-1 socket whose placement would hurt a borderline
	// busy downstream socket, and a zone-5 socket that hurts nobody. With
	// NoCoupling, CP only compares own frequencies — equal here — so it
	// tie-breaks to the lower ID (zone 1). Full CP avoids zone 1.
	srv := geometry.SUT()
	row := 4
	z := func(p int) geometry.SocketID { return srv.SocketAt(row, 0, p).ID }
	mk := func() *fakeState {
		fs := newFakeState(t, srv)
		for _, p := range []int{1, 2, 3, 5} {
			fs.jobs[z(p)] = compJob()
		}
		fs.amb[z(1)] = 58
		fs.amb[z(2)] = 57
		fs.amb[z(3)] = 67
		fs.amb[z(5)] = 67
		fs.amb[z(0)] = 18
		fs.amb[z(4)] = 18
		return fs
	}
	idle := []geometry.SocketID{z(0), z(4)}

	full := NewCouplingPredictor(5)
	if got := full.Pick(mk(), compJob(), idle); got != z(4) {
		t.Errorf("full CP picked pos %d, want 4", srv.Socket(got).Pos)
	}
	ablated := NewCouplingPredictorOpts(5, CPOptions{NoCoupling: true})
	if got := ablated.Pick(mk(), compJob(), idle); got != z(0) {
		t.Errorf("no-coupling CP picked pos %d, want 0 (tie-break)", srv.Socket(got).Pos)
	}
}

func TestCPIdleWeightedCountsIdleDownwind(t *testing.T) {
	// All downwind sockets of the zone-1 candidate are idle but parked at
	// their boost edges (18-fin zones near 58C, 30-fin zones near 65C), so
	// the candidate's heat would cost each a bin once they get work. The
	// alternative candidate is the zone-6 socket, which hurts nobody and
	// still boosts at 65C on its 30-fin sink. The IdleWeighted variant
	// (idle downwind weighted by the high system utilization) must avoid
	// zone 1; the default paper-literal CP sees zero downwind loss (all
	// downwind sockets idle), ties on own frequency, and takes the lower
	// ID (zone 1).
	srv := geometry.SUT()
	row := 2
	z := func(p int) geometry.SocketID { return srv.SocketAt(row, 0, p).ID }
	mk := func() *fakeState {
		fs := newFakeState(t, srv)
		// Mark the rest of the server busy so the utilization estimate is
		// high.
		for _, sk := range srv.Sockets() {
			if sk.Row != row {
				fs.jobs[sk.ID] = compJob()
			}
		}
		fs.amb[z(1)] = 65 // zone 2, 30-fin
		fs.amb[z(2)] = 58 // zone 3, 18-fin
		fs.amb[z(3)] = 65 // zone 4, 30-fin
		fs.amb[z(4)] = 58 // zone 5, 18-fin
		fs.amb[z(5)] = 65 // zone 6, 30-fin
		return fs
	}
	idle := []geometry.SocketID{z(0), z(5)}

	weighted := NewCouplingPredictorOpts(5, CPOptions{IdleWeighted: true})
	if got := weighted.Pick(mk(), compJob(), idle); got != z(5) {
		t.Errorf("idle-weighted CP picked pos %d, want 5", srv.Socket(got).Pos)
	}
	literal := NewCouplingPredictor(5)
	if got := literal.Pick(mk(), compJob(), idle); got != z(0) {
		t.Errorf("paper-literal CP picked pos %d, want 0 (tie-break)", srv.Socket(got).Pos)
	}
}

func TestCPNoBudgetIgnoresBudgetCaps(t *testing.T) {
	// Two candidates at equal cool ambients, one with exhausted boost
	// budget. Full CP scores the budgetless socket lower (capped own
	// frequency); the no-budget variant ties and takes the lower ID.
	srv := geometry.SUT()
	row := 7
	a := srv.SocketAt(row, 0, 0).ID // lower ID, budget exhausted
	b := srv.SocketAt(row, 0, 4).ID
	mk := func() *fakeState {
		fs := newFakeState(t, srv)
		fs.caps[a] = chipmodel.MaxSustained
		return fs
	}
	idle := []geometry.SocketID{a, b}

	full := NewCouplingPredictor(5)
	if got := full.Pick(mk(), compJob(), idle); got != b {
		t.Errorf("full CP picked %d, want budget-rich %d", got, b)
	}
	noBudget := NewCouplingPredictorOpts(5, CPOptions{IgnoreBudget: true})
	if got := noBudget.Pick(mk(), compJob(), idle); got != a {
		t.Errorf("no-budget CP picked %d, want %d (tie-break)", got, a)
	}
}

func TestCPIdleWeightedSkipsDeadDownwind(t *testing.T) {
	// The zone-1 candidate's downwind sockets (zones 2-5) sit at their
	// boost edges, so the idle-weighted variant charges it a loss for each
	// one that is idle. Dead sockets are Busy but carry no job: they will
	// never run work, so they must cost nothing. With zones 2-5 dead the
	// candidates tie on own frequency (zone 6 is cool and hurts nobody)
	// and the lower ID (zone 1) wins; with the same sockets idle, the
	// variant must avoid zone 1.
	srv := geometry.SUT()
	row := 2
	z := func(p int) geometry.SocketID { return srv.SocketAt(row, 0, p).ID }
	mk := func(dead bool) *fakeState {
		fs := newFakeState(t, srv)
		for _, sk := range srv.Sockets() {
			if sk.Row != row {
				fs.jobs[sk.ID] = compJob()
			}
		}
		for p := 1; p <= 4; p++ {
			fs.dead[z(p)] = dead
		}
		fs.amb[z(1)] = 65 // zone 2, 30-fin
		fs.amb[z(2)] = 58 // zone 3, 18-fin
		fs.amb[z(3)] = 65 // zone 4, 30-fin
		fs.amb[z(4)] = 58 // zone 5, 18-fin
		return fs
	}
	idle := []geometry.SocketID{z(0), z(5)}

	weighted := NewCouplingPredictorOpts(5, CPOptions{IdleWeighted: true})
	if got := weighted.Pick(mk(true), compJob(), idle); got != z(0) {
		t.Errorf("idle-weighted CP picked pos %d with dead downwind sockets, want 0 (no loss, tie-break)", srv.Socket(got).Pos)
	}
	if got := weighted.Pick(mk(false), compJob(), idle); got != z(5) {
		t.Errorf("idle-weighted CP picked pos %d with idle downwind sockets, want 5", srv.Socket(got).Pos)
	}
}
