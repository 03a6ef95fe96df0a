package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// Steadiness mode: run the workloads n times per set in alternating order,
// each run with its own seed (counting up from 1), and print every
// end-to-end metric's median, quartiles and spread (interquartile range
// over median) against its bound.
// With two or more sets it also prints how far each later set's median
// moved from the first set's, in the worse direction, against the same
// bound. Any metric past its bound is flagged and the exit code is 1.

func runSteady(spec *benchmarkFile, n, sets int, secs float64) int {
	names := []string{}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bounds := map[string]metricSpec{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	// values[set][workload][metric] lists one value per run.
	values := make([]map[string]map[string][]float64, sets)
	seed := uint64(1)
	for s := 0; s < sets; s++ {
		values[s] = map[string]map[string][]float64{}
		for i := 0; i < n; i++ {
			order := slices.Clone(names)
			if i%2 == 1 {
				slices.Reverse(order)
			}
			for _, w := range order {
				res, err := runChild(self, w, seed, secs)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: set %d run %d %s seed %d: %v\n", s+1, i+1, w, seed, err)
					return 1
				}
				fmt.Printf("set %d run %d %-8s seed %-4d", s+1, i+1, w, seed)
				if values[s][w] == nil {
					values[s][w] = map[string][]float64{}
				}
				for _, m := range spec.EndToEnd {
					v := res.Metrics[m.Name].Value
					values[s][w][m.Name] = append(values[s][w][m.Name], v)
					fmt.Printf(" %s=%.4g", m.Name, v)
				}
				fmt.Println()
				seed++
			}
		}
	}

	flagged := 0
	fmt.Printf("\n%-8s %-10s %4s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "set", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			b := bounds[m.Name].Bound
			var first float64
			for s := 0; s < sets; s++ {
				q1, med, q3 := quartiles(values[s][w][m.Name])
				spread := (q3 - q1) / med
				verdict := "ok"
				if spread > b {
					verdict = "SPREAD OVER BOUND"
					flagged++
				} else if spread > b/3 {
					verdict = "ok (above a third of the bound)"
				}
				if s == 0 {
					first = med
				} else if drift := worse(bounds[m.Name].Better, first, med); drift > b {
					verdict += fmt.Sprintf("; MEDIAN %+.1f%% WORSE THAN SET 1", drift*100)
					flagged++
				} else {
					verdict += fmt.Sprintf("; median %+.1f%% vs set 1", drift*100)
				}
				fmt.Printf("%-8s %-10s %4d %12.6g %12.6g %12.6g %7.1f%% %5.0f%% %s\n", w, m.Name, s+1, q1, med, q3, spread*100, b*100, verdict)
			}
		}
	}
	if flagged > 0 {
		fmt.Printf("\n%d metric(s) past their bound\n", flagged)
		return 1
	}
	fmt.Println("\nall spreads and medians within their bounds")
	return 0
}

// worse is how far b is from a in the metric's worse direction, as a share
// of a (negative when b is better).
func worse(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runChild runs one workload in a child process and parses its result line.
func runChild(self, workload string, seed uint64, secs float64) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	if err != nil {
		return nil, fmt.Errorf("%w after %v (last line %q)", err, time.Since(t0).Round(time.Second), last)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d checked outputs failed", res.Failed, res.Attempted)
	}
	return &res, nil
}
