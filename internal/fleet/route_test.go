package fleet

// Tests for the generate-and-route pass and the compact-record machinery
// under it: a fleet run's allocations must not scale with its arrival count,
// the typed completion heap must behave exactly like container/heap, and the
// replay signature must track every byte of replay content.

import (
	"container/heap"
	"runtime"
	"testing"

	"densim/internal/scenario"
	"densim/internal/stats"
	"densim/internal/units"
	"densim/internal/workload"
)

// runMallocs runs the fleet once and returns the heap objects the run
// allocated, with the fleet's dispatched arrival and epoch counts.
func runMallocs(t *testing.T, sc *scenario.Scenario) (mallocs uint64, arrivals, epochs int) {
	t.Helper()
	f, err := New(sc, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := f.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return after.Mallocs - before.Mallocs, len(res.Picks), res.Epochs
}

// TestFleetRunAllocsIndependentOfArrivals: routing holds each arrival as a
// compact record appended to a pre-sized window, and the completion heaps
// are typed, so doubling a fleet-2x2 horizon may add allocations for the
// extra epochs and simulated time but not one per extra arrival.
func TestFleetRunAllocsIndependentOfArrivals(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fleet-2x2 four times")
	}
	for _, epoch := range []float64{0, 0.05} {
		var mallocs [2]uint64
		var arrivals, epochs [2]int
		for k, horizon := range []float64{0.25, 0.5} {
			sc, err := scenario.Preset("fleet-2x2")
			if err != nil {
				t.Fatal(err)
			}
			sc.Run.DurationS = horizon
			sc.Run.SinkTauS = 0.5
			if epoch > 0 {
				sc.Fleet.Epoch = &scenario.FleetEpoch{PeriodS: epoch}
			}
			mallocs[k], arrivals[k], epochs[k] = runMallocs(t, sc)
		}
		extraArrivals := arrivals[1] - arrivals[0]
		extraEpochs := epochs[1] - epochs[0]
		extra := int64(mallocs[1]) - int64(mallocs[0])
		t.Logf("epoch %gs: %d -> %d allocs over %d -> %d arrivals, %d -> %d epochs",
			epoch, mallocs[0], mallocs[1], arrivals[0], arrivals[1], epochs[0], epochs[1])
		if extraArrivals < 10000 {
			t.Fatalf("epoch %gs: doubling the horizon added only %d arrivals; the test needs a busier fleet", epoch, extraArrivals)
		}
		// Per-epoch work (the step closure, EpochStarts growth) is the only
		// allocation the fleet layer may add; the simulators contribute a
		// small share proportional to simulated time.
		if limit := int64(extraArrivals/100 + 50*extraEpochs); extra > limit {
			t.Errorf("epoch %gs: doubling the horizon added %d allocations for %d arrivals and %d epochs (limit %d): the run allocates per arrival",
				epoch, extra, extraArrivals, extraEpochs, limit)
		}
	}
}

// refHeap is the container/heap reference the typed completionHeap must
// match step for step.
type refHeap []units.Seconds

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(units.Seconds)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestCompletionHeapMatchesContainerHeap drives the typed heap and the
// container/heap reference through the same random push/pop/retire
// sequences, duplicates included, and requires the same length and minimum
// after every step.
func TestCompletionHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := stats.NewRNG(seed)
		var got completionHeap
		var want refHeap
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				// Coarse values so equal keys are common.
				v := units.Seconds(rng.Intn(500)) / 8
				got.push(v)
				heap.Push(&want, v)
			case r < 9:
				if len(want) == 0 {
					continue
				}
				g, w := got.pop(), heap.Pop(&want).(units.Seconds)
				if g != w {
					t.Fatalf("seed %d step %d: pop = %v, want %v", seed, step, g, w)
				}
			default:
				cut := units.Seconds(rng.Intn(500)) / 8
				got.retire(cut)
				for len(want) > 0 && want[0] <= cut {
					heap.Pop(&want)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: len = %d, want %d", seed, step, len(got), len(want))
			}
			if len(got) > 0 && got[0] != want[0] {
				t.Fatalf("seed %d step %d: min = %v, want %v", seed, step, got[0], want[0])
			}
		}
	}
}

// TestStreamSignatureTracksContent: equal replay content hashes equal, and
// changing any one record's at, nominal, or bench — or any one table entry —
// changes the signature.
func TestStreamSignatureTracksContent(t *testing.T) {
	mk := func() ([]workload.Benchmark, []arrival) {
		benches := append([]workload.Benchmark(nil), workload.ClassMix(workload.GeneralPurpose).Benchmarks()...)
		arrivals := make([]arrival, 1000) // spans several hash-buffer flushes
		for i := range arrivals {
			arrivals[i] = arrival{
				at:      units.Seconds(i) * 0.001,
				nominal: units.Seconds(1 + i%7),
				bench:   int32(i % len(benches)),
			}
		}
		return benches, arrivals
	}
	benches, arrivals := mk()
	base := newReplaySource(benches, arrivals).SourceSignature()
	if b2, a2 := mk(); newReplaySource(b2, a2).SourceSignature() != base {
		t.Fatal("equal replay content produced different signatures")
	}
	mutations := map[string]func(b []workload.Benchmark, a []arrival) []arrival{
		"first at":     func(_ []workload.Benchmark, a []arrival) []arrival { a[0].at += 1e-9; return a },
		"last nominal": func(_ []workload.Benchmark, a []arrival) []arrival { a[len(a)-1].nominal *= 2; return a },
		"middle bench": func(b []workload.Benchmark, a []arrival) []arrival {
			a[500].bench = (a[500].bench + 1) % int32(len(b))
			return a
		},
		"dropped entry": func(_ []workload.Benchmark, a []arrival) []arrival { return a[:len(a)-1] },
		"table name":    func(b []workload.Benchmark, a []arrival) []arrival { b[0].Name += "x"; return a },
		"table power":   func(b []workload.Benchmark, a []arrival) []arrival { b[len(b)-1].PowerAt90C++; return a },
		"table tdp":     func(b []workload.Benchmark, a []arrival) []arrival { b[1].SocketTDP = 45; return a },
	}
	for name, mutate := range mutations {
		b, a := mk()
		if newReplaySource(b, mutate(b, a)).SourceSignature() == base {
			t.Errorf("%s: signature unchanged", name)
		}
	}
}
