// Package workload models the paper's VDI workloads: 19 PCMark-7-derived
// benchmarks grouped into three sets — Computation intensive, Storage
// intensive, and General Purpose (Section III-A).
//
// The paper captured Xperf hardware traces and measured power/performance at
// each P-state; this package is the synthetic equivalent, calibrated to
// every number the paper publishes:
//
//   - Figure 6(a): average job durations are on the order of a few
//     milliseconds, with maxima almost two orders of magnitude higher.
//   - Figure 6(b): the coefficient of variation of mean durations within
//     each set is 0.25-0.33.
//   - Figure 7(a): at 1900 MHz and 90 C, Computation draws 18 W and Storage
//     10.5 W, with General Purpose in between; power falls with frequency,
//     more steeply for Computation.
//   - Figure 7(b): an 800 MHz frequency reduction costs Computation ~35%
//     performance; Storage is nearly frequency-insensitive; GP intermediate.
package workload

import (
	"fmt"

	"densim/internal/chipmodel"
	"densim/internal/stats"
	"densim/internal/units"
)

// Class is a benchmark set.
type Class int

// The three benchmark sets of Section III-A.
const (
	Computation Class = iota
	GeneralPurpose
	Storage
)

// Classes lists all benchmark sets in presentation order.
var Classes = []Class{Computation, GeneralPurpose, Storage}

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Computation:
		return "Computation"
	case GeneralPurpose:
		return "GP"
	case Storage:
		return "Storage"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// TDP of the modeled AMD Opteron X2150-class socket.
const TDP units.Watts = 22

// durCoVWithin is the within-benchmark duration dispersion: a lognormal with
// this CoV puts the p99.99 job at roughly two orders of magnitude above the
// mean, matching the paper's observation about maximum job durations.
const durCoVWithin = 2.5

// Benchmark is one synthetic PCMark-7-class application.
type Benchmark struct {
	// Name identifies the benchmark.
	Name string
	// Class is the set the benchmark belongs to.
	Class Class
	// MeanDuration is the mean job length when running at FMax.
	MeanDuration units.Seconds
	// PowerAt90C is the measured total socket power at 1900 MHz with the
	// chip at 90C (the Figure 7 quantity, which includes 30%-of-TDP
	// leakage).
	PowerAt90C units.Watts
	// FreqSensitivity is the fraction of the job's work that scales with
	// core frequency (Amdahl-style); the rest is bound on memory or IO.
	FreqSensitivity float64
	// SocketTDP is the TDP of the part the benchmark runs on; zero means
	// the default X2150 TDP. Non-default values appear only through
	// ScaleTo, which re-targets a benchmark at a different socket class.
	SocketTDP units.Watts
}

// TDPW returns the socket TDP the benchmark is calibrated for.
func (b Benchmark) TDPW() units.Watts {
	if b.SocketTDP > 0 {
		return b.SocketTDP
	}
	return TDP
}

// ScaleTo returns a copy of the benchmark re-targeted at a socket of a
// different TDP class (e.g. the 45 W Xeon-D-class parts of Table I for the
// Figure 3 motivational experiment): total power at 90C scales with the TDP
// ratio; durations and frequency sensitivity are unchanged.
func (b Benchmark) ScaleTo(tdp units.Watts) Benchmark {
	if tdp <= 0 {
		panic("workload: non-positive TDP")
	}
	factor := float64(tdp) / float64(b.TDPW())
	b.PowerAt90C = units.Watts(float64(b.PowerAt90C) * factor)
	b.SocketTDP = tdp
	return b
}

// DynamicPowerAt returns the benchmark's dynamic (leakage-free) power at a
// P-state: the measured 90C total minus reference leakage, scaled cubically
// in frequency (P_dyn ~ f*V^2 with V tracking f across the DVFS range).
func (b Benchmark) DynamicPowerAt(f units.MHz) units.Watts {
	dynMax := float64(b.DynMax())
	r := float64(f) / float64(chipmodel.FMax)
	return units.Watts(dynMax * r * r * r)
}

// DynMax returns the dynamic power at FMax, which with the shared frequency
// ladder fully determines the benchmark's dynamic-power curve:
// DynamicPowerAt(f) = DynMax * (f/FMax)^3.
func (b Benchmark) DynMax() units.Watts {
	leak90 := chipmodel.LeakageFracAtRef * float64(b.TDPW())
	return units.Watts(float64(b.PowerAt90C) - leak90)
}

// RelPerf returns performance at frequency f relative to FMax, using the
// frequency-bound fraction: perf = 1 / ((1-s) + s*FMax/f).
func (b Benchmark) RelPerf(f units.MHz) float64 {
	if f <= 0 {
		panic("workload: non-positive frequency")
	}
	s := b.FreqSensitivity
	return 1 / ((1 - s) + s*float64(chipmodel.FMax)/float64(f))
}

// DurationDist returns the job-length distribution at FMax.
func (b Benchmark) DurationDist() stats.Lognormal {
	return stats.Lognormal{Mean: float64(b.MeanDuration), CoV: durCoVWithin}
}

// SampleDuration draws one job length at FMax.
func (b Benchmark) SampleDuration(r *stats.RNG) units.Seconds {
	return units.Seconds(b.DurationDist().Sample(r))
}

// benchmarks is the full 19-entry catalog. Per-benchmark mean durations are
// chosen so each set's inter-benchmark CoV lands in the paper's 0.25-0.33
// window, and per-benchmark powers average to the set-level Figure 7 anchors
// (Computation 18 W, GP 14 W, Storage 10.5 W at 1900 MHz / 90 C).
var benchmarks = []Benchmark{
	// Computation intensive (6): mean duration 4.0 ms, CoV 0.27.
	{Name: "video-transcode-hq", Class: Computation, MeanDuration: 0.0026, PowerAt90C: 18.6, FreqSensitivity: 0.78},
	{Name: "video-transcode-mobile", Class: Computation, MeanDuration: 0.0032, PowerAt90C: 18.4, FreqSensitivity: 0.76},
	{Name: "image-filter", Class: Computation, MeanDuration: 0.0036, PowerAt90C: 18.2, FreqSensitivity: 0.74},
	{Name: "image-resize", Class: Computation, MeanDuration: 0.0040, PowerAt90C: 18.0, FreqSensitivity: 0.73},
	{Name: "spreadsheet-recalc", Class: Computation, MeanDuration: 0.0046, PowerAt90C: 17.6, FreqSensitivity: 0.72},
	{Name: "data-compress", Class: Computation, MeanDuration: 0.0060, PowerAt90C: 17.2, FreqSensitivity: 0.71},

	// General purpose (8): mean duration 3.0 ms, CoV 0.28.
	{Name: "web-browse", Class: GeneralPurpose, MeanDuration: 0.0016, PowerAt90C: 14.6, FreqSensitivity: 0.52},
	{Name: "web-script", Class: GeneralPurpose, MeanDuration: 0.0022, PowerAt90C: 14.5, FreqSensitivity: 0.50},
	{Name: "text-edit", Class: GeneralPurpose, MeanDuration: 0.0025, PowerAt90C: 14.3, FreqSensitivity: 0.47},
	{Name: "email-sync", Class: GeneralPurpose, MeanDuration: 0.0029, PowerAt90C: 14.1, FreqSensitivity: 0.46},
	{Name: "photo-gallery", Class: GeneralPurpose, MeanDuration: 0.0031, PowerAt90C: 14.0, FreqSensitivity: 0.45},
	{Name: "pdf-render", Class: GeneralPurpose, MeanDuration: 0.0035, PowerAt90C: 13.8, FreqSensitivity: 0.44},
	{Name: "presentation", Class: GeneralPurpose, MeanDuration: 0.0038, PowerAt90C: 13.5, FreqSensitivity: 0.42},
	{Name: "video-playback", Class: GeneralPurpose, MeanDuration: 0.0044, PowerAt90C: 13.2, FreqSensitivity: 0.40},

	// Storage intensive (5): mean duration 2.2 ms, CoV 0.27.
	{Name: "app-start", Class: Storage, MeanDuration: 0.0014, PowerAt90C: 11.1, FreqSensitivity: 0.16},
	{Name: "virus-scan", Class: Storage, MeanDuration: 0.0018, PowerAt90C: 10.8, FreqSensitivity: 0.14},
	{Name: "media-import", Class: Storage, MeanDuration: 0.0022, PowerAt90C: 10.5, FreqSensitivity: 0.12},
	{Name: "file-index", Class: Storage, MeanDuration: 0.0025, PowerAt90C: 10.2, FreqSensitivity: 0.10},
	{Name: "db-journal", Class: Storage, MeanDuration: 0.0031, PowerAt90C: 9.9, FreqSensitivity: 0.08},
}

// Benchmarks returns the full 19-benchmark catalog in stable order. The
// returned slice must not be modified.
func Benchmarks() []Benchmark { return benchmarks }

// ByClass returns the benchmarks of one set in stable order.
func ByClass(c Class) []Benchmark {
	var out []Benchmark
	for _, b := range benchmarks {
		if b.Class == c {
			out = append(out, b)
		}
	}
	return out
}

// ByName returns a benchmark by name.
func ByName(name string) (Benchmark, error) {
	for _, b := range benchmarks {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// MeanDuration returns the mean job duration (at FMax) across a set, with
// benchmarks weighted equally — the Figure 6(a) quantity.
func MeanDuration(c Class) units.Seconds {
	bs := ByClass(c)
	var sum float64
	for _, b := range bs {
		sum += float64(b.MeanDuration)
	}
	return units.Seconds(sum / float64(len(bs)))
}

// DurationCoV returns the coefficient of variation of mean durations across
// the benchmarks of a set — the Figure 6(b) quantity.
func DurationCoV(c Class) float64 {
	bs := ByClass(c)
	xs := make([]float64, len(bs))
	for i, b := range bs {
		xs[i] = float64(b.MeanDuration)
	}
	return stats.Summarize(xs).CoV()
}

// SetPowerAt returns the set-average total power at a P-state with the chip
// at 90C — the Figure 7(a) curves.
func SetPowerAt(c Class, f units.MHz) units.Watts {
	bs := ByClass(c)
	leak90 := chipmodel.LeakageFracAtRef * float64(TDP)
	var sum float64
	for _, b := range bs {
		sum += float64(b.DynamicPowerAt(f)) + leak90
	}
	return units.Watts(sum / float64(len(bs)))
}

// SetRelPerf returns the set-average relative performance at a P-state —
// the Figure 7(b) curves.
func SetRelPerf(c Class, f units.MHz) float64 {
	bs := ByClass(c)
	var sum float64
	for _, b := range bs {
		sum += b.RelPerf(f)
	}
	return sum / float64(len(bs))
}
