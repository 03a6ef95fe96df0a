package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// maxPinnedSeed is the last seed, counting from 0, digests.json covers.
const maxPinnedSeed = 30

// pinDigests rewrites digests.json: figures, knee and fleet digests for run
// seeds 0 to maxPinnedSeed (knee: every simulation seed they draw), each
// made under the serial engine, so every benchmark run checks the default
// engine against the reference path.
func pinDigests() error {
	p := pinnedFile{
		Note: "Reference digests of the simulated figures, knee and fleet outputs, made under engine.mode serial " +
			"(bash perfbench/run.sh --pin). Seeds missing here are checked against a serial run made in the benchmark run.",
		Fig3:        map[string]string{},
		FigureCells: map[string]string{},
		Knee:        map[string]string{},
		FleetOpen:   map[string]string{},
		FleetClosed: map[string]string{},
	}
	for seed := uint64(0); seed <= maxPinnedSeed; seed++ {
		k := seedKey(seed)
		var err error
		if p.Fig3[k], p.FigureCells[k], err = figuresWant(seed); err != nil {
			return err
		}
		knee, _, err := kneeWants(nil, kneeSeeds(seed))
		if err != nil {
			return err
		}
		for s, d := range knee {
			p.Knee[seedKey(s)] = d
		}
		if p.FleetOpen[k], err = fleetWant(seed, 0); err != nil {
			return err
		}
		if p.FleetClosed[k], err = fleetWant(seed, fleetEpochS); err != nil {
			return err
		}
		fmt.Printf("pinned seed %d\n", seed)
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinnedPath, append(data, '\n'), 0o644)
}
