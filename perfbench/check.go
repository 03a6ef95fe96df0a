package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strconv"

	"densim/internal/fleet"
	"densim/internal/metrics"
)

// Output checks. Every output a run produces is compared with a reference
// digest: the repository's golden figure digests for the static tables, and
// for the simulated outputs (the figures' Fig 3 and cells, knee, fleet) the
// digests pinned in digests.json (made under the serial engine, --pin) or,
// for a seed they do not cover, a serial-engine run of the same seed made
// after the measured phase.

// pinnedFile is the layout of digests.json: per output kind, seed -> digest.
type pinnedFile struct {
	Note        string            `json:"note"`
	Fig3        map[string]string `json:"fig3"`
	FigureCells map[string]string `json:"figure_cells"`
	Knee        map[string]string `json:"knee"`
	FleetOpen   map[string]string `json:"fleet_open"`
	FleetClosed map[string]string `json:"fleet_closed"`
}

func readPinned(path string) (*pinnedFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading pinned digests: %w", err)
	}
	var p pinnedFile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &p, nil
}

func seedKey(seed uint64) string { return strconv.FormatUint(seed, 10) }

// want is the reference digest of one output kind: pinned for the seed,
// else ref, a serial-engine run of the same seed.
func (e *env) want(pinned map[string]string, kind string, ref func() (string, error)) (string, error) {
	if d, ok := pinned[seedKey(e.seed)]; ok {
		e.prov["reference_"+kind] = "pinned"
		return d, nil
	}
	e.prov["reference_"+kind] = "serial run of the same seed"
	return ref()
}

// checker counts checked outputs and their failures.
type checker struct{ attempted, failed int }

// expect records one checked output.
func (c *checker) expect(name, got, want string) {
	c.attempted++
	if got != want {
		c.failed++
		fmt.Printf("check FAILED: %s digest %.12s, want %.12s\n", name, got, want)
	}
}

// fail records one output that could not be produced.
func (c *checker) fail(name string, err error) {
	c.attempted++
	c.failed++
	fmt.Printf("check FAILED: %s: %v\n", name, err)
}

// digest is a canonical SHA-256 over exact float bits.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) int(name string, v int) { fmt.Fprintf(d.h, "%s=%d;", name, v) }
func (d *digest) f64(name string, v float64) {
	fmt.Fprintf(d.h, "%s=%016x;", name, math.Float64bits(v))
}

// ints hashes a long sequence in one write.
func (d *digest) ints(name string, vs []int) {
	buf := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	fmt.Fprintf(d.h, "%s[%d]=", name, len(vs))
	d.h.Write(buf)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *digest) result(r metrics.Result) {
	d.int("completed", r.Completed)
	d.f64("exp", r.MeanExpansion)
	d.f64("svc_exp", r.MeanServiceExpansion)
	d.f64("wait", r.MeanWaitSeconds)
	d.f64("energy", float64(r.EnergyJ))
	d.f64("span", float64(r.Span))
	d.f64("boost", r.BoostResidency)
	d.f64("busy", r.BusySocketSeconds)
	d.f64("work", r.CompletedWorkSeconds)
	for _, reg := range metrics.Regions {
		d.f64("rfreq"+reg.String(), r.RegionFreq[reg])
		d.f64("rwork"+reg.String(), r.RegionWorkShare[reg])
	}
	d.intMap("zwork", r.ZoneWorkShare)
	d.intMap("zfreq", r.ZoneFreq)
}

func (d *digest) intMap(name string, m map[int]float64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		d.f64(fmt.Sprintf("%s%d", name, k), m[k])
	}
}

func resultDigest(r metrics.Result) string {
	d := newDigest()
	d.result(r)
	return d.sum()
}

// fleetDigest covers the aggregate, every chassis result and the pick
// sequence. The worker count is left out: it changes wall time only.
func fleetDigest(r *fleet.Result) string {
	d := newDigest()
	d.result(r.Aggregate)
	for _, c := range r.Chassis {
		fmt.Fprintf(d.h, "chassis %s %s;", c.Name(), c.Scenario)
		d.int("sockets", c.Sockets)
		d.f64("inlet", float64(c.Inlet))
		d.int("dispatched", c.Dispatched)
		d.int("arrived", c.Arrived)
		d.int("unfinished", c.Unfinished)
		d.int("est_err", c.EstErr)
		d.result(c.Result)
		if c.Ledger != nil {
			d.f64("fan", c.Ledger.FanEnergyJ)
			d.int("requeues", c.Ledger.Requeues)
			d.int("dead", c.Ledger.DeadSockets)
			d.f64("flow", c.Ledger.FlowFactor)
		}
	}
	fmt.Fprintf(d.h, "dispatcher %s;", r.Dispatcher)
	d.int("epochs", r.Epochs)
	d.f64("epoch_s", float64(r.EpochS))
	d.ints("picks", r.Picks)
	d.ints("epoch_starts", r.EpochStarts)
	return d.sum()
}
