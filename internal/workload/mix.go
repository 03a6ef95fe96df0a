package workload

import (
	"fmt"

	"densim/internal/stats"
	"densim/internal/units"
)

// Mix is a job population: a set of benchmarks sampled with equal
// probability, the way the paper exercises each benchmark set as one
// workload.
type Mix struct {
	name       string
	benchmarks []Benchmark
}

// NewMix builds a mix over an explicit benchmark list.
func NewMix(name string, bs []Benchmark) (Mix, error) {
	if len(bs) == 0 {
		return Mix{}, fmt.Errorf("workload: empty mix %q", name)
	}
	return Mix{name: name, benchmarks: append([]Benchmark(nil), bs...)}, nil
}

// ClassMix returns the mix for one benchmark set.
func ClassMix(c Class) Mix {
	m, err := NewMix(c.String(), ByClass(c))
	if err != nil {
		panic("workload: " + err.Error())
	}
	return m
}

// ScaledClassMix returns the mix for one benchmark set re-targeted at a
// different socket TDP class via Benchmark.ScaleTo.
func ScaledClassMix(c Class, tdp units.Watts) Mix {
	bs := ByClass(c)
	scaled := make([]Benchmark, len(bs))
	for i, b := range bs {
		scaled[i] = b.ScaleTo(tdp)
	}
	m, err := NewMix(fmt.Sprintf("%s-%dW", c, int(tdp)), scaled)
	if err != nil {
		panic("workload: " + err.Error())
	}
	return m
}

// Name returns the mix label.
func (m Mix) Name() string { return m.name }

// Benchmarks returns the mix members.
func (m Mix) Benchmarks() []Benchmark { return m.benchmarks }

// Sample draws one benchmark uniformly.
func (m Mix) Sample(r *stats.RNG) Benchmark {
	return m.benchmarks[r.Intn(len(m.benchmarks))]
}

// MeanDuration returns the expected job duration at FMax across the mix.
func (m Mix) MeanDuration() units.Seconds {
	var sum float64
	for _, b := range m.benchmarks {
		sum += float64(b.MeanDuration)
	}
	return units.Seconds(sum / float64(len(m.benchmarks)))
}

// ArrivalRate returns the Poisson job arrival rate (jobs/second) that loads
// a system of numSockets to the target utilization, assuming jobs run at
// FMax: rate = load * sockets / meanDuration. Thermal throttling stretches
// service times, so the achieved utilization can exceed the target — which
// is exactly the effect the paper's schedulers compete on.
func (m Mix) ArrivalRate(numSockets int, load float64) float64 {
	if load < 0 || numSockets <= 0 {
		panic(fmt.Sprintf("workload: bad arrival parameters load=%v sockets=%d", load, numSockets))
	}
	return load * float64(numSockets) / float64(m.MeanDuration())
}

// Arrivals generates a deterministic Poisson arrival sequence for a mix.
// A zero (or disabled) rate is an explicit state, not a sentinel time:
// Peek reports "never" while disabled, and SetRate can resume the process
// later. The previous implementation parked next at a 1e300 sentinel and
// kept adding finite gaps to it on advance, so a process that ever hit
// rate zero could never produce another arrival.
type Arrivals struct {
	mix      Mix
	rng      *stats.RNG
	rate     float64
	next     units.Seconds
	disabled bool
}

// NewArrivals creates the arrival process; the first arrival is sampled
// immediately (unless the load is zero, which starts the process disabled).
func NewArrivals(mix Mix, numSockets int, load float64, rng *stats.RNG) *Arrivals {
	a := &Arrivals{mix: mix, rng: rng, rate: mix.ArrivalRate(numSockets, load)}
	a.advance()
	return a
}

func (a *Arrivals) advance() {
	if a.rate <= 0 {
		a.disabled = true
		return
	}
	gap := stats.Exponential{Mean: 1 / a.rate}.Sample(a.rng)
	a.next += units.Seconds(gap)
}

const inf = 1e300

// SetRate changes the Poisson rate mid-stream. rate <= 0 disables the
// process (Peek reports "never"); a positive rate on a disabled process
// resumes it from now — the next gap is sampled forward from now, not from
// wherever the stream died.
func (a *Arrivals) SetRate(rate float64, now units.Seconds) {
	a.rate = rate
	if rate <= 0 {
		a.disabled = true
		return
	}
	if a.disabled {
		a.disabled = false
		a.next = now
		a.advance()
	}
}

// SnapshotState returns the process's full mutable state — the RNG stream
// position and the pending arrival instant. Together with the (immutable)
// mix and rate these determine every future arrival, so a run restored from
// (rngState, next) replays the remaining sequence bit-for-bit. The disabled
// state is encoded on the wire as a next at or beyond the never-arrives
// sentinel, keeping the format stable.
func (a *Arrivals) SnapshotState() (rngState uint64, next units.Seconds) {
	next = a.next
	if a.disabled {
		next = units.Seconds(inf)
	}
	return a.rng.State(), next
}

// RestoreState resumes the process from a SnapshotState capture.
func (a *Arrivals) RestoreState(rngState uint64, next units.Seconds) {
	a.rng.SetState(rngState)
	a.disabled = next >= units.Seconds(inf)
	a.next = next
}

// Peek returns the time of the next arrival ("never" while disabled).
func (a *Arrivals) Peek() units.Seconds {
	if a.disabled {
		return units.Seconds(inf)
	}
	return a.next
}

// Next consumes the next arrival, returning its time, benchmark, and
// sampled nominal duration (the FMax run time).
func (a *Arrivals) Next() (at units.Seconds, b Benchmark, dur units.Seconds) {
	at, i, dur := a.NextIndex()
	return at, a.mix.benchmarks[i], dur
}

// NextIndex consumes the next arrival exactly as Next does — same draws from
// the same RNG in the same order — but returns the benchmark as its index
// into the mix's Benchmarks table rather than a copy of it.
func (a *Arrivals) NextIndex() (at units.Seconds, bench int, dur units.Seconds) {
	at = a.next
	bench = a.rng.Intn(len(a.mix.benchmarks))
	dur = a.mix.benchmarks[bench].SampleDuration(a.rng)
	a.advance()
	return at, bench, dur
}
