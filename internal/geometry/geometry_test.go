package geometry

import (
	"math"
	"slices"
	"testing"

	"densim/internal/chipmodel"
	"densim/internal/units"
)

func TestSUTShape(t *testing.T) {
	s := SUT()
	if s.NumSockets() != 180 {
		t.Fatalf("SUT sockets = %d, want 180", s.NumSockets())
	}
	if s.Rows != 15 || s.Lanes != 2 || s.Depth != 6 {
		t.Errorf("SUT dims = %dx%dx%d, want 15x2x6", s.Rows, s.Lanes, s.Depth)
	}
	if s.DegreeOfCoupling() != 6 {
		t.Errorf("degree of coupling = %d, want 6", s.DegreeOfCoupling())
	}
}

func TestSUTZoneSinks(t *testing.T) {
	// Figure 12: odd zones 18-fin, even zones 30-fin.
	s := SUT()
	for _, sk := range s.Sockets() {
		zone := s.Zone(sk.ID)
		want := chipmodel.Sink18Fin
		if zone%2 == 0 {
			want = chipmodel.Sink30Fin
		}
		if got := s.Sink(sk.ID); got != want {
			t.Fatalf("zone %d socket has sink %v, want %v", zone, got, want)
		}
		if s.IsEvenZone(sk.ID) != (zone%2 == 0) {
			t.Fatalf("IsEvenZone mismatch for zone %d", zone)
		}
	}
}

func TestSUTSpacing(t *testing.T) {
	// Section IV-B: sockets within a cartridge are 1.6 inches apart; adjacent
	// sockets between cartridges (zones 2 and 3) are about 3 inches apart.
	s := SUT()
	x := s.XPositions
	if len(x) != 6 {
		t.Fatalf("depth positions = %d", len(x))
	}
	within := (x[1] - x[0]).Inches()
	between := (x[2] - x[1]).Inches()
	if math.Abs(within-1.6) > 1e-9 {
		t.Errorf("within-cartridge spacing = %v in, want 1.6", within)
	}
	if math.Abs(between-3.0) > 1e-9 {
		t.Errorf("between-cartridge spacing = %v in, want 3.0", between)
	}
	// The pattern repeats: zone3-zone4 = 1.6, zone4-zone5 = 3.0.
	if math.Abs((x[3]-x[2]).Inches()-1.6) > 1e-9 || math.Abs((x[4]-x[3]).Inches()-3.0) > 1e-9 {
		t.Error("cartridge spacing pattern broken")
	}
}

func TestZoneNumbering(t *testing.T) {
	s := SUT()
	for p := 0; p < s.Depth; p++ {
		sk := s.SocketAt(3, 1, p)
		if got := s.Zone(sk.ID); got != p+1 {
			t.Errorf("pos %d zone = %d, want %d", p, got, p+1)
		}
	}
}

func TestFrontHalf(t *testing.T) {
	s := SUT()
	for _, sk := range s.Sockets() {
		want := s.Zone(sk.ID) <= 3
		if got := s.IsFrontHalf(sk.ID); got != want {
			t.Errorf("zone %d IsFrontHalf = %v", s.Zone(sk.ID), got)
		}
	}
}

func TestUpstreamDownstream(t *testing.T) {
	s := SUT()
	mid := s.SocketAt(4, 1, 2)
	up := s.Upstream(mid.ID)
	down := s.Downstream(mid.ID)
	if len(up) != 2 || len(down) != 3 {
		t.Fatalf("upstream/downstream sizes = %d/%d, want 2/3", len(up), len(down))
	}
	// Nearest first.
	if s.Socket(up[0]).Pos != 1 || s.Socket(up[1]).Pos != 0 {
		t.Error("upstream not nearest-first")
	}
	if s.Socket(down[0]).Pos != 3 || s.Socket(down[2]).Pos != 5 {
		t.Error("downstream not nearest-first")
	}
	// Same row and lane throughout.
	for _, id := range append(append([]SocketID{}, up...), down...) {
		if s.Socket(id).Row != 4 || s.Socket(id).Lane != 1 {
			t.Error("upstream/downstream crossed row or lane")
		}
	}
	// Edges.
	if len(s.Upstream(s.SocketAt(0, 0, 0).ID)) != 0 {
		t.Error("zone-1 socket has upstream sockets")
	}
	if len(s.Downstream(s.SocketAt(0, 0, 5).ID)) != 0 {
		t.Error("zone-6 socket has downstream sockets")
	}
}

func TestNeighbors(t *testing.T) {
	s := SUT()
	// Interior socket: 2 along flow + 1 lane + 2 rows = 5 neighbors, in
	// flow, lane, row order (CN sums their temperatures in this order).
	got := s.AppendNeighbors(nil, s.SocketAt(7, 0, 3).ID)
	want := []SocketID{
		s.SocketAt(7, 0, 2).ID, s.SocketAt(7, 0, 4).ID,
		s.SocketAt(7, 1, 3).ID,
		s.SocketAt(6, 0, 3).ID, s.SocketAt(8, 0, 3).ID,
	}
	if !slices.Equal(got, want) {
		t.Errorf("interior neighbors = %v, want %v", got, want)
	}
	// Corner socket (row 0, lane 0, pos 0): 1 flow + 1 lane + 1 row = 3.
	if got := len(s.AppendNeighbors(nil, s.SocketAt(0, 0, 0).ID)); got != 3 {
		t.Errorf("corner neighbors = %d, want 3", got)
	}
}

func TestRowSockets(t *testing.T) {
	s := SUT()
	row := s.RowSockets(6)
	if len(row) != 12 {
		t.Fatalf("row sockets = %d, want 12 (2 lanes x 6 zones)", len(row))
	}
	for _, id := range row {
		if s.Socket(id).Row != 6 {
			t.Error("RowSockets returned socket from another row")
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	s := SUT()
	a := s.SocketAt(0, 0, 0).ID
	b := s.SocketAt(0, 0, 1).ID
	c := s.SocketAt(14, 1, 5).ID
	if d := s.Distance(a, a); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	if s.Distance(a, b) != s.Distance(b, a) {
		t.Error("distance not symmetric")
	}
	if math.Abs(s.Distance(a, b).Inches()-1.6) > 1e-9 {
		t.Errorf("adjacent distance = %v in, want 1.6", s.Distance(a, b).Inches())
	}
	if s.Distance(a, c) <= s.Distance(a, b) {
		t.Error("far corner not farther than neighbor")
	}
}

func TestCoupledPair(t *testing.T) {
	p := CoupledPair()
	if p.NumSockets() != 2 {
		t.Fatalf("coupled pair sockets = %d", p.NumSockets())
	}
	up := p.SocketAt(0, 0, 0).ID
	down := p.SocketAt(0, 0, 1).ID
	if p.Sink(up) != chipmodel.Sink18Fin || p.Sink(down) != chipmodel.Sink30Fin {
		t.Error("coupled pair sinks wrong")
	}
	if len(p.Downstream(up)) != 1 || p.Downstream(up)[0] != down {
		t.Error("coupled pair has no downstream relation")
	}
}

func TestUncoupledPair(t *testing.T) {
	p := UncoupledPair()
	if p.NumSockets() != 2 {
		t.Fatalf("uncoupled pair sockets = %d", p.NumSockets())
	}
	a := p.SocketAt(0, 0, 0).ID
	b := p.SocketAt(0, 1, 0).ID
	// No airflow relation between the two.
	if len(p.Downstream(a)) != 0 || len(p.Upstream(b)) != 0 {
		t.Error("uncoupled pair has airflow relations")
	}
	// Same sink heterogeneity as the coupled pair.
	if p.Sink(a) != chipmodel.Sink18Fin || p.Sink(b) != chipmodel.Sink30Fin {
		t.Errorf("uncoupled pair sinks = %v/%v", p.Sink(a), p.Sink(b))
	}
}

func TestNewValidation(t *testing.T) {
	xs := []units.Meters{0, 0.1}
	sinks := []chipmodel.Sink{chipmodel.Sink18Fin, chipmodel.Sink30Fin}
	if _, err := New("bad", 0, 1, xs, sinks, 0.1, 0.1); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := New("bad", 1, 1, xs, sinks[:1], 0.1, 0.1); err == nil {
		t.Error("sink/depth mismatch accepted")
	}
	if _, err := New("bad", 1, 1, []units.Meters{0.1, 0.1}, sinks, 0.1, 0.1); err == nil {
		t.Error("non-increasing x positions accepted")
	}
}

func TestSocketIDsDense(t *testing.T) {
	s := SUT()
	for i, sk := range s.Sockets() {
		if int(sk.ID) != i {
			t.Fatalf("socket %d has ID %d", i, sk.ID)
		}
		if s.Socket(sk.ID) != sk {
			t.Fatalf("Socket(%d) round trip failed", sk.ID)
		}
	}
}

func TestDenseSystem(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 6, 12} {
		srv, err := DenseSystem("study", 180/depth, 1, depth)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if srv.NumSockets() != 180 {
			t.Errorf("depth %d: %d sockets", depth, srv.NumSockets())
		}
		if srv.DegreeOfCoupling() != depth {
			t.Errorf("depth %d: coupling %d", depth, srv.DegreeOfCoupling())
		}
		// The sink/spacing pattern must match the SUT's for shared depths.
		if depth >= 2 {
			if srv.Sink(srv.SocketAt(0, 0, 0).ID) != chipmodel.Sink18Fin ||
				srv.Sink(srv.SocketAt(0, 0, 1).ID) != chipmodel.Sink30Fin {
				t.Errorf("depth %d: sink pattern broken", depth)
			}
			if got := (srv.XPositions[1] - srv.XPositions[0]).Inches(); math.Abs(got-1.6) > 1e-9 {
				t.Errorf("depth %d: spacing %v", depth, got)
			}
		}
	}
}

func TestDenseSystemMatchesSUTAtDepth6(t *testing.T) {
	srv, err := DenseSystem("sut-like", 15, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	sut := SUT()
	if srv.NumSockets() != sut.NumSockets() || srv.Depth != sut.Depth {
		t.Error("depth-6 dense system differs from the SUT")
	}
	for p := 0; p < 6; p++ {
		if srv.XPositions[p] != sut.XPositions[p] || srv.Sinks[p] != sut.Sinks[p] {
			t.Errorf("position %d differs from SUT", p)
		}
	}
}
