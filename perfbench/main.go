// Command perfbench is densim's end-to-end benchmark. It runs one of three
// workloads through the public API of the scenario, sim, sched, experiments
// and fleet packages, times those calls from outside, checks every
// output against a reference digest, and prints one JSON result
// as the last line of standard output.
//
//	bash perfbench/run.sh --workload knee --seed 7 --seconds 25 --trace 0
//	bash perfbench/run.sh --steady 5 --sets 2     # steadiness verdicts
//	bash perfbench/run.sh --pin                   # re-pin the reference digests
//
// With --trace 0 the result carries the end-to-end metrics (tracing off);
// with --trace 1 it carries the per-layer metrics of a separate traced run,
// whose spans are written under .bench_build/perfbench/out. run.sh builds
// this program into .bench_build and runs it from the repository root.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	benchmarkPath = "BENCHMARK.json"
	pinnedPath    = "perfbench/digests.json"
	goldenPath    = "internal/experiments/testdata/golden_digests.json"
	workRoot      = ".bench_build/perfbench"
)

// env is one workload run's context and its outputs.
type env struct {
	workload string
	seed     uint64
	budget   time.Duration // how long the measured phase runs
	traced   bool
	work     string // per-run directory for generated inputs and caches
	pinned   *pinnedFile

	// setup repeats the workload's set-up (see measureBatches).
	setup *sampler

	chk   checker
	tr    *tracer
	e2e   map[string]float64
	extra map[string]float64 // end-to-end figures outside the result line
	layer map[string]float64
	prov  map[string]any
}

// measureBatches is the measured phase: it runs batch until the budget is
// spent, at least once, and stores the end-to-end metrics. batch times its
// own call with measure. Set-up is sampled the same way whatever the batch
// count: after a warm-up, setupReps readings before the first batch and
// setupReps after the last. It reports their median, which moved less from
// process to process than their first quartile or minimum did. fixedSetup
// is set-up paid once, not repeated.
func (e *env) measureBatches(batch func() (cost, error), fixedSetup time.Duration) error {
	warm := sampler{fn: e.setup.fn}
	if err := warm.take(setupWarmup); err != nil {
		return err
	}
	if err := e.setup.take(setupReps); err != nil {
		return err
	}
	var walls, cpus, allocs []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < e.budget {
		c, err := batch()
		if err != nil {
			return err
		}
		walls = append(walls, c.wall.Seconds())
		cpus = append(cpus, c.cpu.Seconds())
		allocs = append(allocs, mb(c.alloc))
	}
	e.e2e["maxrss_mb"] = maxRSSMB()
	if err := e.setup.take(setupReps); err != nil {
		return err
	}
	e.e2e["setup_s"] = (e.setup.median() + fixedSetup).Seconds()
	e.e2e["wall_s"] = median(walls)
	e.e2e["cpu_s"] = median(cpus)
	e.e2e["alloc_mb"] = median(allocs)
	e.prov["batches"] = len(walls)
	e.prov["batch_wall_s"] = walls
	e.prov["batch_alloc_mb"] = allocs
	return nil
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: knee, figures or fleet")
	seed := fl.Uint64("seed", 7, "workload seed; it reaches the simulator only through the generated inputs")
	secs := fl.Float64("seconds", float64(spec.RunSeconds), "length of the measured phase in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	steady := fl.Int("steady", 0, "steadiness mode: run every workload this many times per set")
	sets := fl.Int("sets", 1, "steadiness mode: number of sets to compare")
	pin := fl.Bool("pin", false, "rewrite perfbench/digests.json from serial-engine runs")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	switch {
	case *pin:
		if err := pinDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *steady > 0:
		return runSteady(spec, *steady, *sets, *secs)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if runners[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have knee, figures, fleet)\n", *name)
		return 2
	}
	res, err := runWorkload(spec, *name, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue and result form the JSON result line, the last line of
// standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runWorkload(spec *benchmarkFile, workload string, seed uint64, budget time.Duration, traced bool) (*result, error) {
	pinned, err := readPinned(pinnedPath)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(workRoot, fmt.Sprintf("run-%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{
		workload: workload,
		seed:     seed,
		budget:   budget,
		traced:   traced,
		work:     work,
		pinned:   pinned,
		e2e:      map[string]float64{},
		extra:    map[string]float64{},
		layer:    map[string]float64{},
		prov:     provenance(workload, seed, traced),
	}
	if traced {
		e.tr = newTracer()
	}
	if err := runners[workload](e); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}

	res := &result{Attempted: e.chk.attempted, Failed: e.chk.failed, Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if traced {
		for _, l := range spec.PerLayer {
			res.Metrics[l.Name] = metricValue{e.layer[l.Name], l.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			res.Metrics[m.Name] = metricValue{e.e2e[m.Name], m.Unit}
		}
	}
	if err := printReport(e, res); err != nil {
		return nil, err
	}
	return res, nil
}

// printReport prints the human-readable lines above the result line and keeps a
// record of the run, provenance included, under .bench_build.
func printReport(e *env, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range []string{"step_p50_ms", "step_p95_ms"} {
		if v, ok := e.extra[n]; ok {
			fmt.Printf("%-28s %14.6g ms (of %v steps)\n", n, v, e.prov["steps"])
		}
	}
	fmt.Printf("%-28s %14.6g (%d failed of %d checked outputs)\n", "fail_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	out := filepath.Join(workRoot, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d-%s", e.workload, e.seed, b2i(e.traced), time.Now().UTC().Format("20060102T150405.000")))
	if e.tr != nil {
		if err := e.tr.write(stem + ".spans.jsonl"); err != nil {
			return err
		}
		fmt.Printf("spans: %s.spans.jsonl (%d spans)\n", stem, len(e.tr.spans))
		printSelfTimes(e.tr)
	}
	prov, err := json.Marshal(e.prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance: %s\n", prov)
	record := map[string]any{"provenance": e.prov, "result": res, "extra": e.extra}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(stem+".json", append(data, '\n'), 0o644)
}

func printSelfTimes(t *tracer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("self %-30s %10.3f ms\n", n, ms(self[n]))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// provenance records what the numbers were measured on.
func provenance(workload string, seed uint64, traced bool) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"traced":        traced,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"goarch":        runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out git commit, or "none" outside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the repository,
// identifying the measured code where no git metadata is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
