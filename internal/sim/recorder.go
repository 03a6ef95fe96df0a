package sim

import (
	"fmt"
	"io"

	"densim/internal/units"
)

// ZoneSample is one time point of the per-zone thermal/operating state.
type ZoneSample struct {
	At units.Seconds
	// Per zone (1-based index 0 unused): mean ambient, mean socket temp,
	// mean chip temp, busy socket count, and mean relative frequency of
	// busy sockets.
	Ambient  []float64
	SockTemp []float64
	ChipTemp []float64
	Busy     []int
	RelFreq  []float64
}

// Recorder captures a per-zone time series through the simulator's Probe
// hook — the data behind thermal timelines and warm-up analyses.
type Recorder struct {
	// Interval is the sampling period (simulated seconds).
	Interval units.Seconds

	last    units.Seconds
	started bool
	samples []ZoneSample
}

// NewRecorder creates a recorder sampling every interval seconds.
func NewRecorder(interval units.Seconds) *Recorder {
	if interval <= 0 {
		panic("sim: non-positive recorder interval")
	}
	return &Recorder{Interval: interval}
}

// Probe is the hook to install in Config.Probe.
func (r *Recorder) Probe(s *Simulator, now units.Seconds) {
	if r.started && now-r.last < r.Interval {
		return
	}
	r.started = true
	r.last = now
	r.samples = append(r.samples, snapshot(s, now))
}

func snapshot(s *Simulator, now units.Seconds) ZoneSample {
	srv := s.Server()
	depth := srv.Depth
	sample := ZoneSample{
		At:       now,
		Ambient:  make([]float64, depth+1),
		SockTemp: make([]float64, depth+1),
		ChipTemp: make([]float64, depth+1),
		Busy:     make([]int, depth+1),
		RelFreq:  make([]float64, depth+1),
	}
	counts := make([]int, depth+1)
	busyFreqSum := make([]float64, depth+1)
	for _, sk := range srv.Sockets() {
		z := srv.Zone(sk.ID)
		counts[z]++
		sample.Ambient[z] += float64(s.amb[sk.ID])
		sample.SockTemp[z] += float64(s.vec.SocketTemp(sk.ID))
		sample.ChipTemp[z] += float64(s.chip[sk.ID])
		// Count sockets running a job: Busy also reports dead sockets,
		// which run nothing at 0 MHz.
		if s.jobs[sk.ID] != nil {
			sample.Busy[z]++
			busyFreqSum[z] += float64(s.freq[sk.ID]) / 1900
		}
	}
	for z := 1; z <= depth; z++ {
		if counts[z] > 0 {
			sample.Ambient[z] /= float64(counts[z])
			sample.SockTemp[z] /= float64(counts[z])
			sample.ChipTemp[z] /= float64(counts[z])
		}
		if sample.Busy[z] > 0 {
			sample.RelFreq[z] = busyFreqSum[z] / float64(sample.Busy[z])
		}
	}
	return sample
}

// Samples returns the captured time series.
func (r *Recorder) Samples() []ZoneSample { return r.samples }

// WriteCSV emits the series as CSV: one row per (time, zone).
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time_s,zone,ambient_c,socket_c,chip_c,busy,rel_freq"); err != nil {
		return err
	}
	for _, s := range r.samples {
		for z := 1; z < len(s.Ambient); z++ {
			if _, err := fmt.Fprintf(w, "%.3f,%d,%.2f,%.2f,%.2f,%d,%.3f\n",
				float64(s.At), z, s.Ambient[z], s.SockTemp[z], s.ChipTemp[z], s.Busy[z], s.RelFreq[z]); err != nil {
				return err
			}
		}
	}
	return nil
}
