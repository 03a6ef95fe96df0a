// Package job defines the unit of work the simulator schedules — one VDI
// job derived from the PCMark-class workload model — together with the FIFO
// pending queue and the Source abstraction that feeds jobs into the
// simulation (either a live probabilistic generator or a recorded trace).
package job

import (
	"fmt"

	"densim/internal/units"
	"densim/internal/workload"
)

// ID numbers jobs in arrival order.
type ID int64

// Job is one schedulable unit of work.
type Job struct {
	ID ID
	// Benchmark the job belongs to; supplies the power and performance
	// curves.
	Benchmark workload.Benchmark
	// Arrival is the time the job entered the system.
	Arrival units.Seconds
	// NominalDuration is the run time the job would take at FMax.
	NominalDuration units.Seconds
	// Work is the remaining normalized work: starts at NominalDuration and
	// decreases at RelPerf(freq) seconds of work per second of wall time.
	Work units.Seconds
	// Started is when the job was placed on a socket (undefined before).
	Started units.Seconds
	// Done is when the job completed (undefined before completion).
	Done units.Seconds
}

// New creates a job with its full work remaining.
func New(id ID, b workload.Benchmark, arrival, nominal units.Seconds) *Job {
	if nominal <= 0 {
		panic(fmt.Sprintf("job: non-positive nominal duration %v", nominal))
	}
	return &Job{ID: id, Benchmark: b, Arrival: arrival, NominalDuration: nominal, Work: nominal}
}

// Expansion returns the job's runtime expansion after completion: the ratio
// of actual service time to the FMax run time. 1.0 means the job never
// throttled below FMax; this is the per-job metric behind the paper's
// "average run-time expansion" (Figure 11).
func (j *Job) Expansion() float64 {
	service := float64(j.Done - j.Started)
	return service / float64(j.NominalDuration)
}

// Pool recycles Job allocations. At high load the simulator retires
// thousands of jobs per simulated second, and each completed job is
// unreachable the moment the completion hooks return — so the owner hands it
// back with Put and the next arrival reuses the allocation via Get. Get
// resets every field to exactly what New would construct, so a recycled job
// is indistinguishable from a fresh one; the simulator's frequency search
// (sched.LadderSearch) interns curves by benchmark value, never by job
// pointer, and is never invalidated, which makes recycling unobservable.
// Not safe for concurrent use; give each simulation its own Pool.
type Pool struct {
	free []*Job
}

// Get returns a job with its full work remaining, reusing a previously Put
// allocation when one is available.
func (p *Pool) Get(id ID, b workload.Benchmark, arrival, nominal units.Seconds) *Job {
	n := len(p.free)
	if n == 0 {
		return New(id, b, arrival, nominal)
	}
	j := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	if nominal <= 0 {
		panic(fmt.Sprintf("job: non-positive nominal duration %v", nominal))
	}
	*j = Job{ID: id, Benchmark: b, Arrival: arrival, NominalDuration: nominal, Work: nominal}
	return j
}

// Put hands a job back for reuse. The caller must not touch j afterwards.
func (p *Pool) Put(j *Job) {
	p.free = append(p.free, j)
}

// Queue is the FIFO pending-job queue the central job controller drains
// (Section III-D: arriving jobs enter a queue; if no socket is idle the
// scheduler waits for one to free up). Implemented as a ring buffer to keep
// high-load simulations allocation-free in steady state.
type Queue struct {
	buf  []*Job
	head int
	n    int
}

// Len returns the number of queued jobs.
func (q *Queue) Len() int { return q.n }

// Push appends a job.
func (q *Queue) Push(j *Job) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = j
	q.n++
}

// Pop removes and returns the oldest job, or nil if empty.
func (q *Queue) Pop() *Job {
	if q.n == 0 {
		return nil
	}
	j := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return j
}

// Peek returns the oldest job without removing it, or nil if empty.
func (q *Queue) Peek() *Job {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

// At returns the i-th queued job in FIFO order (0 = oldest) without
// removing it. It panics if i is out of range. Snapshots use it to walk the
// queue non-destructively.
func (q *Queue) At(i int) *Job {
	if i < 0 || i >= q.n {
		panic(fmt.Sprintf("job: Queue.At(%d) out of range [0,%d)", i, q.n))
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

func (q *Queue) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]*Job, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// Source produces the job arrival stream. workload.Arrivals is the live
// generator; trace.Player replays a recorded stream.
type Source interface {
	// Peek returns the time of the next arrival (may be +inf if exhausted).
	Peek() units.Seconds
	// Next consumes the next arrival.
	Next() (at units.Seconds, b workload.Benchmark, nominal units.Seconds)
}

// Verify workload.Arrivals satisfies Source.
var _ Source = (*workload.Arrivals)(nil)
