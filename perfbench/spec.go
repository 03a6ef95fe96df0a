package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json at the repository root is the benchmark's one list of
// workloads and metrics: a run reports exactly the metrics it names, with
// their units, and the steadiness mode judges spreads against its bounds.

// metricSpec is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// runners maps each workload of BENCHMARK.json to its implementation.
var runners = map[string]func(*env) error{
	"knee":    runKnee,
	"figures": runFigures,
	"fleet":   runFleet,
}

func readSpec() (*benchmarkFile, error) {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark spec: %w", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", benchmarkPath, err)
	}
	for _, w := range b.Workloads {
		if runners[w.Name] == nil {
			return nil, fmt.Errorf("%s: workload %q has no implementation", benchmarkPath, w.Name)
		}
	}
	return &b, nil
}
