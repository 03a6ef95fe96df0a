package sim_test

import (
	"testing"

	"densim/internal/chipmodel"
	"densim/internal/geometry"
	"densim/internal/scenario"
	"densim/internal/sched"
	"densim/internal/sim"
	"densim/internal/workload"
)

// TestChannelLayout pins the socket layout the event engine's sweep and
// flags rest on, for every topology a run can build (every scenario preset,
// the Figure 3 pairs and a mixed-SKU server): airflow channel c is the
// contiguous ID range [c*Depth, (c+1)*Depth), upstream first, and laneIdx
// maps each of its sockets to c. geometry.New and airflow.New both enumerate
// row-major, so this holds by construction; the test keeps the two from
// drifting apart.
func TestChannelLayout(t *testing.T) {
	servers := map[string]*geometry.Server{
		"coupled-pair":   geometry.CoupledPair(),
		"uncoupled-pair": geometry.UncoupledPair(),
	}
	for _, name := range scenario.Names() {
		sc, err := scenario.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if servers["preset/"+name], err = sc.Server(); err != nil {
			t.Fatal(err)
		}
	}
	mixed := geometry.SUT()
	mixed.SetSKU(mixed.SocketAt(0, 0, 0).ID, chipmodel.SKU{TDP: 18, FMax: 1500})
	mixed.SetSKU(mixed.SocketAt(7, 1, 2).ID, chipmodel.SKU{TDP: 30})
	servers["mixed-sku"] = mixed

	for name, srv := range servers {
		cp, err := sched.ByName("CP", 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(sim.Config{
			Server:    srv,
			Scheduler: cp,
			Mix:       workload.ClassMix(workload.Computation),
			Duration:  1,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		af, lane := s.Airflow(), sim.LaneIndex(s)
		if got := af.NumChannels() * srv.Depth; got != srv.NumSockets() {
			t.Errorf("%s: %d channels x depth %d cover %d sockets, want %d",
				name, af.NumChannels(), srv.Depth, got, srv.NumSockets())
		}
		for c := 0; c < af.NumChannels(); c++ {
			ch := af.Channel(c)
			if len(ch) != srv.Depth {
				t.Errorf("%s: channel %d holds %d sockets, want depth %d", name, c, len(ch), srv.Depth)
			}
			for p, id := range ch {
				if int(id) != c*srv.Depth+p {
					t.Errorf("%s: channel %d position %d is socket %d, want %d", name, c, p, id, c*srv.Depth+p)
				}
				if lane[id] != int32(c) {
					t.Errorf("%s: laneIdx[%d] = %d, want channel %d", name, id, lane[id], c)
				}
			}
		}
	}
}
