package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cost is the host cost of one timed call: wall clock, process CPU
// (user+sys) and Go heap bytes allocated.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

func (c cost) add(d cost) cost {
	return cost{c.wall + d.wall, c.cpu + d.cpu, c.alloc + d.alloc}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// measure times fn from outside: the counters are read before and after,
// never inside the call. It first collects the heap, so the garbage of one
// timed call is neither collected during nor counted in the peak RSS of
// the next.
func measure(fn func() error) (cost, error) {
	runtime.GC()
	a0 := totalAlloc()
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	c := cost{wall: wall, cpu: cpuTime() - c0}
	c.alloc = totalAlloc() - a0
	return c, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func mb(b uint64) float64        { return float64(b) / (1 << 20) }

// median returns the middle value (mean of the two middle ones for an even
// count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (p in (0,100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// quartiles matches Python's statistics.quantiles(xs, n=4) in its default
// exclusive method, the definition the steadiness verdicts use.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// sampler repeats a timed call and keeps every reading; fn times its own
// measured section and returns it.
type sampler struct {
	fn func() (time.Duration, error)
	xs []float64
}

func (s *sampler) take(reps int) error {
	for i := 0; i < reps; i++ {
		d, err := s.fn()
		if err != nil {
			return err
		}
		s.xs = append(s.xs, float64(d))
	}
	return nil
}

func (s *sampler) median() time.Duration { return time.Duration(median(s.xs)) }

// medianOf runs fn reps times and returns the median reading.
func medianOf(reps int, fn func() (time.Duration, error)) (time.Duration, error) {
	s := sampler{fn: fn}
	err := s.take(reps)
	return s.median(), err
}

// span is one traced call boundary. High-frequency calls inside it (picks)
// are folded into Calls/CallNs instead of getting spans of their own.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	CallNs int64  `json:"call_ns,omitempty"`
}

// tracer records spans in memory on one goroutine; a nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op int) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open)
	t.spans[t.open[n-1]].End = int64(time.Since(t.t0))
	t.open = t.open[:n-1]
}

// fold attributes one high-frequency call of duration d to the innermost
// open span.
func (t *tracer) fold(d time.Duration) {
	if t == nil || len(t.open) == 0 {
		return
	}
	s := &t.spans[t.open[len(t.open)-1]]
	s.Calls++
	s.CallNs += int64(d)
}

// selfTimes sums, per span name, each span's duration minus its children's.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
