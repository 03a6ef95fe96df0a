package experiments

import (
	"reflect"
	"strings"
	"testing"

	"densim/internal/metrics"
	"densim/internal/sched"
	"densim/internal/workload"
)

// tinyOptions keeps simulation-backed experiment tests fast: short window,
// strongly shortened sink time constant, one seed.
func tinyOptions() SimOptions {
	return SimOptions{Duration: 4, Warmup: 1.5, SinkTau: 0.4, Seeds: []uint64{7}}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(tinyOptions())
	c := Cell{Sched: "CF", Class: workload.Storage, Load: 0.2}
	a, err := r.Result(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.MeanExpansion != b.MeanExpansion {
		t.Error("memoized result differs")
	}
}

func TestRunnerUnknownScheduler(t *testing.T) {
	r := NewRunner(tinyOptions())
	if _, err := r.Result(Cell{Sched: "LIFO", Class: workload.Storage, Load: 0.2}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if err := r.Prefetch([]Cell{{Sched: "LIFO", Class: workload.Storage, Load: 0.2}}); err == nil {
		t.Error("Prefetch swallowed the error")
	}
}

func TestCellString(t *testing.T) {
	c := Cell{Sched: "CP", Class: workload.Computation, Load: 0.7}
	if got := c.String(); got != "CP/Computation/70%" {
		t.Errorf("cell string = %q", got)
	}
}

func TestAverageResultsMean(t *testing.T) {
	r := NewRunner(SimOptions{Duration: 2, Warmup: 0.5, SinkTau: 0.4, Seeds: []uint64{7, 8}})
	res, err := r.Result(Cell{Sched: "Random", Class: workload.Storage, Load: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanExpansion < 1.0-1e-9 {
		t.Errorf("averaged expansion = %v", res.MeanExpansion)
	}
	if res.Completed == 0 {
		t.Error("averaged result lost completions")
	}
}

func TestFig3Directions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	res, tbl, err := Fig3(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
	// The paper's Figure 3 directions: CF wins on the uncoupled pair
	// (it exploits the better heat sink), HF wins on the coupled pair
	// (it keeps work off the upstream socket). Quick-preset magnitudes are
	// smaller than the paper's 8%/5%; see EXPERIMENTS.md.
	if res.CFOverHFUncoupled < 1.0 {
		t.Errorf("uncoupled: CF/HF = %v, want >= 1 (CF wins)", res.CFOverHFUncoupled)
	}
	if res.HFOverCFCoupled < 1.0 {
		t.Errorf("coupled: HF/CF = %v, want >= 1 (HF wins)", res.HFOverCFCoupled)
	}
}

// TestSharedRunnerFigures runs the shape checks whose cells overlap as
// subtests of one runner, so each cell is simulated once: Fig 11 and Fig 13
// share their loads, and Fig 14/15, the headline and the CP ablation share
// the 30% and 80% cells. The runner belongs to this test rather than to the
// package, so a -count=2 run simulates everything again on its second pass.
func TestSharedRunnerFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	r := NewRunner(tinyOptions())
	t.Run("Fig11Shapes", func(t *testing.T) { fig11Shapes(t, r) })
	t.Run("Fig13Shapes", func(t *testing.T) { fig13Shapes(t, r) })
	t.Run("Fig14And15ShareCells", func(t *testing.T) { fig14And15ShareCells(t, r) })
	t.Run("Headline", func(t *testing.T) { headline(t, r) })
	t.Run("AblationCP", func(t *testing.T) { ablationCP(t, r) })
}

func fig11Shapes(t *testing.T, r *Runner) {
	rows, tbl, err := Fig11(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 { // 9 schemes x 2 loads
		t.Fatalf("rows = %d", len(rows))
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
	get := func(s string, load float64) float64 {
		for _, row := range rows {
			if row.Sched == s && row.Load == load {
				return row.ExpansionVsCF
			}
		}
		t.Fatalf("missing row %s/%v", s, load)
		return 0
	}
	// CF is its own baseline.
	if get("CF", 0.3) != 1 || get("CF", 0.7) != 1 {
		t.Error("CF not normalized to 1")
	}
	// Predictive matches or improves on CF at low load (paper: the only
	// existing scheme that clearly improves; the tiny test preset
	// compresses the gap to a tie).
	if get("Predictive", 0.3) > 1.005 {
		t.Errorf("Predictive at 30%% = %v, want <= ~1", get("Predictive", 0.3))
	}
}

func fig13Shapes(t *testing.T, r *Runner) {
	rows, _, err := Fig13(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 { // 10 schemes x 2 loads
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// Work shares must be sane.
		if row.WorkFront < 0 || row.WorkFront > 1 || row.WorkBack < 0 || row.WorkBack > 1 {
			t.Fatalf("%s work shares out of range: %+v", row.Sched, row)
		}
		if d := row.WorkFront + row.WorkBack; d < 0.99 || d > 1.01 {
			t.Fatalf("%s front+back = %v", row.Sched, d)
		}
	}
	get := func(s string, load float64) Fig13Row {
		for _, row := range rows {
			if row.Sched == s && row.Load == load {
				return row
			}
		}
		t.Fatalf("missing %s/%v", s, load)
		return Fig13Row{}
	}
	// At 30% load CF front-packs while MinHR and HF pack the back
	// (Figure 13a's workdone contrast).
	if cf, hf := get("CF", 0.3), get("HF", 0.3); cf.WorkFront <= hf.WorkFront {
		t.Errorf("CF front work %v <= HF front work %v at 30%%", cf.WorkFront, hf.WorkFront)
	}
	if mh := get("MinHR", 0.3); mh.WorkBack < 0.6 {
		t.Errorf("MinHR back work = %v at 30%%, want > 0.6", mh.WorkBack)
	}
}

func fig14And15ShareCells(t *testing.T, r *Runner) {
	loads := []float64{0.3, 0.8}
	rows14, tbl14, err := Fig14(r, loads)
	if err != nil {
		t.Fatal(err)
	}
	rows15, tbl15, err := Fig15(r, loads)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 3 * len(loads) * 10 // classes x loads x schemes
	if len(rows14) != wantRows || len(rows15) != wantRows {
		t.Fatalf("rows = %d/%d, want %d", len(rows14), len(rows15), wantRows)
	}
	if len(tbl14.Rows) != 3*len(loads) || len(tbl15.Rows) != 3*len(loads) {
		t.Fatalf("table rows = %d/%d", len(tbl14.Rows), len(tbl15.Rows))
	}
	// CF normalizations.
	for _, row := range rows14 {
		if row.Sched == "CF" && row.RelPerf != 1 {
			t.Errorf("CF rel perf = %v", row.RelPerf)
		}
		if row.RelPerf <= 0 {
			t.Errorf("non-positive rel perf: %+v", row)
		}
	}
	for _, row := range rows15 {
		if row.Sched == "CF" && row.RelED2 != 1 {
			t.Errorf("CF rel ED2 = %v", row.RelED2)
		}
		if row.RelED2 <= 0 {
			t.Errorf("non-positive rel ED2: %+v", row)
		}
	}
	// The paper's headline: CP never falls meaningfully below CF. (The
	// clear high-load wins need the Quick/Full windows — the tiny test
	// preset compresses them; see the repository benchmarks and
	// EXPERIMENTS.md for recorded magnitudes.)
	for _, row := range rows14 {
		if row.Sched != "CP" {
			continue
		}
		if row.RelPerf < 0.97 {
			t.Errorf("CP rel perf %v at %+v; paper: robust across loads", row.RelPerf, row)
		}
	}
}

// TestAverageResultsTwoSeedSemantics pins the fixed multi-seed merge: every
// field is an arithmetic mean, including Completed (rounded to the nearest
// job). The pre-fix code summed Completed while averaging Span, inflating
// any Completed/Span throughput by the seed count.
func TestAverageResultsTwoSeedSemantics(t *testing.T) {
	a := metrics.Result{
		Completed: 10, MeanExpansion: 1.2, MeanWaitSeconds: 0.5,
		EnergyJ: 100, Span: 8, BusySocketSeconds: 30, CompletedWorkSeconds: 20,
		RegionFreq:      map[metrics.Region]float64{metrics.FrontHalf: 1500},
		RegionWorkShare: map[metrics.Region]float64{metrics.FrontHalf: 0.6},
		ZoneWorkShare:   map[int]float64{1: 1.0},
		ZoneFreq:        map[int]float64{1: 1500},
	}
	b := metrics.Result{
		Completed: 5, MeanExpansion: 1.4, MeanWaitSeconds: 0.25,
		EnergyJ: 200, Span: 8, BusySocketSeconds: 50, CompletedWorkSeconds: 40,
		RegionFreq:      map[metrics.Region]float64{metrics.FrontHalf: 1700},
		RegionWorkShare: map[metrics.Region]float64{metrics.FrontHalf: 0.8},
		ZoneWorkShare:   map[int]float64{1: 1.0},
		ZoneFreq:        map[int]float64{1: 1700},
	}
	got := averageResults([]metrics.Result{a, b})
	if got.Completed != 8 { // round(7.5) — a count, not a sum of 15
		t.Errorf("Completed = %d, want 8 (rounded mean)", got.Completed)
	}
	if got.Span != 8 || got.EnergyJ != 150 {
		t.Errorf("Span/EnergyJ = %v/%v, want 8/150", got.Span, got.EnergyJ)
	}
	if got.MeanWaitSeconds != 0.375 {
		t.Errorf("MeanWaitSeconds = %v, want 0.375 (was dropped pre-fix)", got.MeanWaitSeconds)
	}
	if got.BusySocketSeconds != 40 || got.CompletedWorkSeconds != 30 {
		t.Errorf("BusySocketSeconds/CompletedWorkSeconds = %v/%v, want 40/30 (were dropped pre-fix)",
			got.BusySocketSeconds, got.CompletedWorkSeconds)
	}
	if got.RegionFreq[metrics.FrontHalf] != 1600 || got.RegionWorkShare[metrics.FrontHalf] != 0.7 {
		t.Errorf("region maps not averaged: %+v", got)
	}
	// Single-seed results pass through untouched — figure CSVs from
	// single-seed presets stay byte-identical.
	if !reflect.DeepEqual(averageResults([]metrics.Result{a}), a) {
		t.Error("single-seed result not returned verbatim")
	}
}

// TestPrefetchReportsAllErrors pins the errors.Join semantics: a sweep with
// several broken cells reports every one, not just whichever failed first.
func TestPrefetchReportsAllErrors(t *testing.T) {
	r := NewRunner(tinyOptions())
	err := r.Prefetch([]Cell{
		{Sched: "LIFO", Class: workload.Storage, Load: 0.2},
		{Sched: "CF", Class: workload.Storage, Load: 0.2},
		{Sched: "SJF", Class: workload.Storage, Load: 0.2},
	})
	if err == nil {
		t.Fatal("Prefetch returned nil with two invalid schedulers")
	}
	msg := err.Error()
	if !strings.Contains(msg, "LIFO") || !strings.Contains(msg, "SJF") {
		t.Errorf("error reports only part of the failures: %q", msg)
	}
}

// TestCheckedSmokeAllSchedulers runs one invariant-checked cell for every
// scheduler in the catalog: any violation surfaces as a cell error.
func TestCheckedSmokeAllSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	opts := SimOptions{Duration: 2, Warmup: 0.5, SinkTau: 0.4, Seeds: []uint64{7}, Checked: true}
	r := NewRunner(opts)
	cells := make([]Cell, 0, len(sched.Names()))
	for _, name := range sched.Names() {
		cells = append(cells, Cell{Sched: name, Class: workload.GeneralPurpose, Load: 0.5})
	}
	if err := r.Prefetch(cells); err != nil {
		t.Errorf("checked smoke violations: %v", err)
	}
}

// TestSeedPermutationInvariance is the metamorphic check on the multi-seed
// average: seed order must not matter, down to the last bit of every field.
func TestSeedPermutationInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	run := func(seeds []uint64) metrics.Result {
		r := NewRunner(SimOptions{Duration: 2, Warmup: 0.5, SinkTau: 0.4, Seeds: seeds})
		res, err := r.Result(Cell{Sched: "CP", Class: workload.Storage, Load: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fwd := run([]uint64{7, 8})
	rev := run([]uint64{8, 7})
	if !reflect.DeepEqual(fwd, rev) {
		t.Errorf("seed permutation changed the average:\n  {7,8}: %+v\n  {8,7}: %+v", fwd, rev)
	}
}

func TestPaperLoads(t *testing.T) {
	loads := PaperLoads()
	if len(loads) != 10 || loads[0] != 0.1 || loads[9] != 1.0 {
		t.Errorf("paper loads = %v", loads)
	}
}
