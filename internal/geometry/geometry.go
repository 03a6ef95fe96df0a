// Package geometry describes the physical organization of density optimized
// servers: rows of cartridges, airflow lanes, socket positions, zones, and
// heat-sink assignment. It is the shared vocabulary between the airflow
// model, the schedulers, and the metrics (front half / back half / even
// zones of Figures 12 and 13).
//
// The system under test (SUT) mirrors the HPE Moonshot ProLiant M700-class
// design of Section II/III: 15 rows, each with 3 cartridges in series along
// the airflow; each cartridge holds 4 sockets in a 2x2 arrangement, i.e. two
// airflow lanes with 2 sockets each. Air flows from zone 1 to zone 6. Odd
// zones carry the 18-fin heat sink, even zones the 30-fin sink. Sockets in
// the same cartridge sit 1.6 inches apart along the flow; adjacent sockets
// of neighboring cartridges are 3 inches apart.
package geometry

import (
	"fmt"
	"math"

	"densim/internal/chipmodel"
	"densim/internal/units"
)

// SocketID identifies a socket within a server; IDs are dense in
// [0, NumSockets).
type SocketID int

// Socket is one CPU socket's placement.
type Socket struct {
	ID   SocketID
	Row  int // cartridge row (vertical stack position)
	Lane int // airflow lane within the row
	Pos  int // index along the airflow direction, 0 = most upstream
}

// Server is a complete socket topology.
type Server struct {
	Name  string
	Rows  int
	Lanes int
	Depth int // sockets per lane along the airflow

	// XPositions holds the along-flow coordinate of each depth position.
	XPositions []units.Meters
	// Sinks holds the heat sink type of each depth position.
	Sinks []chipmodel.Sink
	// RowPitch and LanePitch position rows and lanes in space for distance
	// computations.
	RowPitch  units.Meters
	LanePitch units.Meters

	sockets     []Socket
	socketSinks []chipmodel.Sink // per-socket, defaulted from Sinks[pos]
	skus        []chipmodel.SKU  // per-socket part overrides; nil = all default
}

// New constructs a server topology. XPositions and sinks must each have one
// entry per depth position and XPositions must be strictly increasing.
func New(name string, rows, lanes int, xPositions []units.Meters, sinks []chipmodel.Sink, rowPitch, lanePitch units.Meters) (*Server, error) {
	depth := len(xPositions)
	switch {
	case rows <= 0 || lanes <= 0 || depth == 0:
		return nil, fmt.Errorf("geometry %s: empty topology %dx%dx%d", name, rows, lanes, depth)
	case len(sinks) != depth:
		return nil, fmt.Errorf("geometry %s: %d sinks for depth %d", name, len(sinks), depth)
	}
	for i := 1; i < depth; i++ {
		if xPositions[i] <= xPositions[i-1] {
			return nil, fmt.Errorf("geometry %s: x positions not increasing at %d", name, i)
		}
	}
	s := &Server{
		Name:       name,
		Rows:       rows,
		Lanes:      lanes,
		Depth:      depth,
		XPositions: append([]units.Meters(nil), xPositions...),
		Sinks:      append([]chipmodel.Sink(nil), sinks...),
		RowPitch:   rowPitch,
		LanePitch:  lanePitch,
	}
	s.sockets = make([]Socket, 0, rows*lanes*depth)
	for r := 0; r < rows; r++ {
		for l := 0; l < lanes; l++ {
			for p := 0; p < depth; p++ {
				s.sockets = append(s.sockets, Socket{
					ID:   SocketID(len(s.sockets)),
					Row:  r,
					Lane: l,
					Pos:  p,
				})
				s.socketSinks = append(s.socketSinks, sinks[p])
			}
		}
	}
	return s, nil
}

// NumSockets returns the socket count.
func (s *Server) NumSockets() int { return len(s.sockets) }

// Socket returns the socket with the given ID.
func (s *Server) Socket(id SocketID) Socket {
	return s.sockets[id]
}

// Sockets returns all sockets in ID order. The returned slice must not be
// modified.
func (s *Server) Sockets() []Socket { return s.sockets }

// SocketAt returns the socket at (row, lane, pos).
func (s *Server) SocketAt(row, lane, pos int) Socket {
	return s.sockets[(row*s.Lanes+lane)*s.Depth+pos]
}

// Zone returns the 1-based zone number of a socket (its depth position + 1),
// matching the paper's Figure 12 labeling.
func (s *Server) Zone(id SocketID) int { return s.sockets[id].Pos + 1 }

// Sink returns the heat sink type of a socket.
func (s *Server) Sink(id SocketID) chipmodel.Sink {
	return s.socketSinks[id]
}

// SetSink overrides the heat sink of one socket, for topologies where sinks
// vary within a depth position (e.g. the uncoupled control pair of Figure 3).
func (s *Server) SetSink(id SocketID, sink chipmodel.Sink) {
	s.socketSinks[id] = sink
}

// SKU returns the part variant installed at a socket (the zero SKU is the
// platform default part).
func (s *Server) SKU(id SocketID) chipmodel.SKU {
	if s.skus == nil {
		return chipmodel.SKU{}
	}
	return s.skus[id]
}

// SetSKU installs a part variant at one socket. Storage is lazy: a server
// that never sees an override carries no per-socket SKU state at all.
func (s *Server) SetSKU(id SocketID, sku chipmodel.SKU) {
	if s.skus == nil {
		if sku.IsZero() {
			return
		}
		s.skus = make([]chipmodel.SKU, len(s.sockets))
	}
	s.skus[id] = sku
}

// HasSKUs reports whether any socket carries a non-default part — the
// heterogeneity flag the simulator's fast paths key off.
func (s *Server) HasSKUs() bool {
	for _, sku := range s.skus {
		if !sku.IsZero() {
			return true
		}
	}
	return false
}

// IsFrontHalf reports whether the socket is in the front (upstream) half of
// the server: zones 1..ceil(depth/2).
func (s *Server) IsFrontHalf(id SocketID) bool {
	return s.sockets[id].Pos < (s.Depth+1)/2
}

// IsEvenZone reports whether the socket is in an even-numbered zone (the
// zones with the better 30-fin heat sink in the SUT).
func (s *Server) IsEvenZone(id SocketID) bool {
	return s.Zone(id)%2 == 0
}

// Position returns the socket's physical coordinates: x along the airflow,
// y across lanes, z up the row stack.
func (s *Server) Position(id SocketID) (x, y, z units.Meters) {
	sk := s.sockets[id]
	return s.XPositions[sk.Pos], units.Meters(float64(sk.Lane)) * s.LanePitch, units.Meters(float64(sk.Row)) * s.RowPitch
}

// Distance returns the Euclidean distance between two sockets.
func (s *Server) Distance(a, b SocketID) units.Meters {
	ax, ay, az := s.Position(a)
	bx, by, bz := s.Position(b)
	dx, dy, dz := float64(ax-bx), float64(ay-by), float64(az-bz)
	return units.Meters(math.Sqrt(dx*dx + dy*dy + dz*dz))
}

// Upstream returns the sockets strictly upstream of id in the same lane and
// row, nearest first.
func (s *Server) Upstream(id SocketID) []SocketID {
	sk := s.sockets[id]
	out := make([]SocketID, 0, sk.Pos)
	for p := sk.Pos - 1; p >= 0; p-- {
		out = append(out, s.SocketAt(sk.Row, sk.Lane, p).ID)
	}
	return out
}

// Downstream returns the sockets strictly downstream of id in the same lane
// and row, nearest first.
func (s *Server) Downstream(id SocketID) []SocketID {
	sk := s.sockets[id]
	out := make([]SocketID, 0, s.Depth-sk.Pos-1)
	for p := sk.Pos + 1; p < s.Depth; p++ {
		out = append(out, s.SocketAt(sk.Row, sk.Lane, p).ID)
	}
	return out
}

// AppendNeighbors appends the sockets adjacent to id to dst and returns the
// extended slice: the same lane one position up and down the flow, the
// adjacent lanes at the same position, and the adjacent rows at the same
// position, in that order. This is the neighborhood the Coolest-Neighbors
// scheduler inspects. A socket has at most six neighbors, so a caller that
// passes an empty slice of a [6]SocketID buffer never allocates.
func (s *Server) AppendNeighbors(dst []SocketID, id SocketID) []SocketID {
	sk := s.sockets[id]
	if sk.Pos > 0 {
		dst = append(dst, s.SocketAt(sk.Row, sk.Lane, sk.Pos-1).ID)
	}
	if sk.Pos < s.Depth-1 {
		dst = append(dst, s.SocketAt(sk.Row, sk.Lane, sk.Pos+1).ID)
	}
	if sk.Lane > 0 {
		dst = append(dst, s.SocketAt(sk.Row, sk.Lane-1, sk.Pos).ID)
	}
	if sk.Lane < s.Lanes-1 {
		dst = append(dst, s.SocketAt(sk.Row, sk.Lane+1, sk.Pos).ID)
	}
	if sk.Row > 0 {
		dst = append(dst, s.SocketAt(sk.Row-1, sk.Lane, sk.Pos).ID)
	}
	if sk.Row < s.Rows-1 {
		dst = append(dst, s.SocketAt(sk.Row+1, sk.Lane, sk.Pos).ID)
	}
	return dst
}

// RowSockets returns all sockets of one row in ID order.
func (s *Server) RowSockets(row int) []SocketID {
	out := make([]SocketID, 0, s.Lanes*s.Depth)
	for l := 0; l < s.Lanes; l++ {
		for p := 0; p < s.Depth; p++ {
			out = append(out, s.SocketAt(row, l, p).ID)
		}
	}
	return out
}

// DegreeOfCoupling returns the maximum number of sockets sharing one airflow
// lane — the paper's Table I metric.
func (s *Server) DegreeOfCoupling() int { return s.Depth }

// sutXPositions returns the along-flow socket coordinates of the M700-class
// row: cartridge k occupies positions 2k and 2k+1, 1.6 inches apart within
// the cartridge and with a 3 inch gap between adjacent sockets of
// neighboring cartridges.
func sutXPositions(cartridges int) []units.Meters {
	xs := make([]units.Meters, 0, cartridges*2)
	x := 0.0
	for c := 0; c < cartridges; c++ {
		if c > 0 {
			x += 3.0 // inches between cartridges' adjacent sockets
		}
		xs = append(xs, units.FromInches(x))
		x += 1.6 // inches within the cartridge
		xs = append(xs, units.FromInches(x))
	}
	return xs
}

// AlternatingSinks returns the SUT's heat-sink pattern for a lane of the
// given depth: 18-fin for odd zones and 30-fin for even zones (Section II).
func AlternatingSinks(depth int) []chipmodel.Sink {
	sinks := make([]chipmodel.Sink, depth)
	for i := range sinks {
		if (i+1)%2 == 0 {
			sinks[i] = chipmodel.Sink30Fin
		} else {
			sinks[i] = chipmodel.Sink18Fin
		}
	}
	return sinks
}

// UniformSinks returns the same heat sink at every depth position — the
// homogeneous pattern of conventional (uncoupled) chassis.
func UniformSinks(depth int, sink chipmodel.Sink) []chipmodel.Sink {
	sinks := make([]chipmodel.Sink, depth)
	for i := range sinks {
		sinks[i] = sink
	}
	return sinks
}

// SUT builds the paper's 180-socket system under test: 15 rows x 2 lanes x
// 6 zones (3 cartridges of 2x2 sockets in series).
func SUT() *Server {
	s, err := New("moonshot-m700-sut", 15, 2, sutXPositions(3), AlternatingSinks(6),
		units.FromInches(7.0/15), units.FromInches(2.5))
	if err != nil {
		panic("geometry: SUT construction failed: " + err.Error())
	}
	return s
}

// DenseSystem builds a homogeneous density optimized topology with the
// M700-style cartridge pattern generalized to an arbitrary degree of
// coupling: depth sockets per lane along the airflow (alternating
// 18-fin/30-fin sinks and 1.6in/3.0in spacing), rows*lanes independent
// lanes. It is the substrate for coupling-degree design studies: the same
// socket count arranged from fully uncoupled (depth 1) to deeply coupled
// chains.
func DenseSystem(name string, rows, lanes, depth int) (*Server, error) {
	return DenseSystemWithSinks(name, rows, lanes, depth, AlternatingSinks(depth))
}

// DenseSystemWithSinks is DenseSystem with an explicit per-depth heat-sink
// pattern (one entry per depth position) — the scenario layer's topology
// substrate for density sweeps with homogeneous sinks.
func DenseSystemWithSinks(name string, rows, lanes, depth int, sinks []chipmodel.Sink) (*Server, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("geometry %s: non-positive depth %d", name, depth)
	}
	cartridges := (depth + 1) / 2
	xs := sutXPositions(cartridges)[:depth]
	return New(name, rows, lanes, xs, sinks,
		units.FromInches(7.0/15), units.FromInches(2.5))
}

// CoupledPair builds the 2-socket thermally coupled system of Figure 3(a):
// one lane, an 18-fin socket upstream of a 30-fin socket, 1.6 inches apart.
func CoupledPair() *Server {
	s, err := New("coupled-pair", 1, 1,
		[]units.Meters{0, units.FromInches(1.6)},
		[]chipmodel.Sink{chipmodel.Sink18Fin, chipmodel.Sink30Fin},
		units.FromInches(1.75), units.FromInches(2.5))
	if err != nil {
		panic("geometry: CoupledPair construction failed: " + err.Error())
	}
	return s
}

// UncoupledPair builds the control system of Figure 3(a): the same two
// sockets side by side in separate lanes, each receiving inlet air — the
// traditional 1U arrangement.
func UncoupledPair() *Server {
	s, err := New("uncoupled-pair", 1, 2,
		[]units.Meters{0},
		[]chipmodel.Sink{chipmodel.Sink18Fin},
		units.FromInches(1.75), units.FromInches(2.5))
	if err != nil {
		panic("geometry: UncoupledPair construction failed: " + err.Error())
	}
	// Same heterogeneous sinks as the coupled pair: lane 1 gets the 30-fin.
	s.SetSink(s.SocketAt(0, 1, 0).ID, chipmodel.Sink30Fin)
	return s
}
