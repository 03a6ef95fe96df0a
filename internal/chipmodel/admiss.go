package chipmodel

import (
	"math"

	"densim/internal/units"
)

// AdmissCache memoizes verdicts of the P-state admissibility predicate
//
//	PredictTwoStep(ambient, dynW, sink, leak) <= TempLimit
//
// per (entity, frequency index), where an entity is typically a socket
// (fixed sink) evaluated under the run's fixed leakage model. It exists
// because the predicate is the simulator's hottest math.Exp call site — the
// DVFS re-pick sweep and the CP scheduler's downwind predictions both probe
// it with ambients that move slowly or not at all — and because past
// verdicts bound future ones exactly:
//
//   - Replay: the predicate is a pure function, so a probe at a previously
//     evaluated ambient (bit-equal, same dynamic power) returns the stored
//     verdict by definition.
//
//   - Monotonicity with a guard band: in real arithmetic the predicted
//     temperature is strictly increasing in ambient with slope >= 1 (PeakTemp
//     adds a power-dependent rise whose net power coefficient RInt+RExt-
//     |dTheta/dP| is positive, and leakage grows with temperature), so
//     admissible ambients are downward-closed and inadmissible ambients
//     upward-closed. Floating-point evaluation tracks the real function to
//     well under 1e-9 C here, so a verdict is reused across the inequality
//     only when the queried ambient clears the recorded bound by
//     admissMargin — a gap six orders of magnitude wider than the worst
//     rounding jitter. Anything inside the band is re-evaluated.
//
// Both reuse rules return exactly what a fresh PredictTwoStep comparison
// would, which is what lets bit-exactness oracles (golden digests, the
// engine equivalence matrix) hold with the cache in the loop.
//
// The cache has two levels:
//
//   - Per-entity entries, keyed by the probe's dynamic-power bits. A
//     benchmark change on the entity resets its bounds — which, measured on
//     the density workloads at high load, happens every few ticks per
//     socket and is the dominant source of recomputation: job churn evicts
//     bounds that sockets running the same benchmark elsewhere still hold.
//
//   - An optional shared bounds pool (EnableSharedPool), exploiting that
//     the predicate does not depend on the entity at all — only on
//     (dynW, sink, leak). A run sees a handful of distinct dynamic-power
//     values (benchmarks x P-states), so an insert-only table keyed by the
//     dynW bits with per-sink bounds survives job churn entirely: once any
//     socket has evaluated a (dynW, sink) point, every socket with that
//     sink reuses it under the same replay/margin rules.
//
// The shared pool makes the cache single-goroutine: concurrent probes of
// disjoint entities, which the per-entity level permits, would race on the
// pool. Callers that probe from worker pools must leave it disabled.
// sink and leak must be fixed per entity for the lifetime of the cache
// (leak fixed across the whole cache when the pool is enabled).
type AdmissCache struct {
	width int
	e     []admissEntry
	// pool is the shared dynW-keyed bounds table (nil unless enabled):
	// open-addressed, power-of-two sized, insert-only. live counts occupied
	// slots for the grow trigger.
	pool []poolEntry
	live int
	// ladKeys/ladRows is the dynMax-keyed ladder table behind Ladder
	// (available with the shared pool): one precomputed dynamic-power value
	// per P-state per distinct power curve, so ladder searches index an
	// array instead of re-deriving the cubic per probe.
	ladKeys []units.Watts
	ladRows []units.Watts
	ladLive int
	// thrRows/thrBuilt is the boundary-snapshot table behind LadderBounds:
	// per ladder slot, per sink, a copy of the seeded pool bounds for every
	// P-state of the curve, so a whole ladder search runs on one contiguous
	// row with no hashing. thrBuilt bit s marks sink s's row of a slot
	// filled.
	thrRows  []admissBounds
	thrBuilt []uint8
}

type admissEntry struct {
	// dynW keys the entry: the dynamic power the bounds were recorded for.
	// NaN (the initial state) matches nothing.
	dynW units.Watts
	// admLE is the highest ambient proven admissible, inadGE the lowest
	// proven inadmissible, at this dynW.
	admLE  units.Celsius
	inadGE units.Celsius
}

// poolEntry is one shared-pool slot: the bounds for a dynamic-power value
// under each of the two heat sinks. dynW NaN marks the slot empty.
type poolEntry struct {
	dynW   units.Watts
	bounds [2]admissBounds
}

type admissBounds struct {
	admLE  units.Celsius
	inadGE units.Celsius
}

// BoundsRow is a read-only boundary snapshot for one (power curve, sink)
// pair: row[k] bounds the admissibility-boundary ambient of the curve's
// k-th P-state, copied from the shared pool's seeded bounds. Obtained from
// LadderBounds and consumed by AdmissibleRow; nil (shared pool disabled)
// makes AdmissibleRow fall through to Admissible unconditionally. Rows stay
// valid across table growth — a stale row merely holds bounds proven
// earlier, which remain true.
type BoundsRow []admissBounds

// admissMargin is the guard band for cross-ambient verdict reuse. The
// predicate's float evaluation jitters by at most a few ulps of ~100C
// quantities (~1e-12 C); a verdict is reused at a different ambient only
// beyond this far wider margin.
const admissMargin units.Celsius = 1e-6

// NewAdmissCache returns a cache for entities 0..entities-1, one entry per
// entity per Frequencies index, all initially empty.
func NewAdmissCache(entities int) *AdmissCache {
	c := &AdmissCache{width: len(Frequencies)}
	c.e = make([]admissEntry, entities*c.width)
	nan := units.Watts(math.NaN())
	for i := range c.e {
		c.e[i].dynW = nan
	}
	return c
}

// EnableSharedPool attaches the shared dynW-keyed bounds pool. After this
// the cache must only be probed from one goroutine at a time.
func (c *AdmissCache) EnableSharedPool() {
	if c.pool == nil {
		c.pool = newPool(128)
	}
}

func newPool(size int) []poolEntry {
	p := make([]poolEntry, size)
	nan := units.Watts(math.NaN())
	inf := units.Celsius(math.Inf(1))
	for i := range p {
		p[i].dynW = nan
		for s := range p[i].bounds {
			p[i].bounds[s] = admissBounds{admLE: -inf, inadGE: inf}
		}
	}
	return p
}

// poolBounds finds or inserts the pool slot for dynW and returns the bounds
// for sink, seeded on first touch. Linear probing over a power-of-two
// table; grows at 50% load so probe chains stay short.
func (c *AdmissCache) poolBounds(dynW units.Watts, sink Sink, leak Leakage) *admissBounds {
	if 2*c.live >= len(c.pool) {
		c.growPool()
	}
	mask := uint64(len(c.pool) - 1)
	h := poolHash(dynW)
	for {
		p := &c.pool[h&mask]
		if p.dynW == dynW {
			b := sinkBounds(p, sink)
			if math.IsInf(float64(b.admLE), 0) && math.IsInf(float64(b.inadGE), 0) {
				seedBounds(b, dynW, sink, leak)
			}
			return b
		}
		if math.IsNaN(float64(p.dynW)) {
			p.dynW = dynW
			c.live++
			b := sinkBounds(p, sink)
			seedBounds(b, dynW, sink, leak)
			return b
		}
		h++
	}
}

// seedBounds locates the admissibility boundary for (dynW, sink, leak) by
// bisection and records it, so nearly every later probe is bound-decided
// without evaluating the predicate. Each bisection step is an ordinary
// fresh evaluation at a concrete ambient, recorded exactly as Admissible
// would record it — the bounds' invariant ("proven by direct evaluation at
// that ambient") is untouched; seeding just frontloads ~50 evaluations per
// distinct (dynW, sink) instead of paying one per probe near the moving
// ambient. Probes inside the admissMargin band around the boundary still
// fall through to fresh evaluation.
func seedBounds(b *admissBounds, dynW units.Watts, sink Sink, leak Leakage) {
	admit := func(a units.Celsius) bool {
		return PredictTwoStep(a, dynW, sink, leak) <= TempLimit
	}
	// Ambient domain with generous slack: real runs live in roughly
	// [inlet, TempLimit]; outside [-200, 400] the verdicts are constant
	// and the one-sided bound still decides every in-range probe.
	lo, hi := units.Celsius(-200), units.Celsius(400)
	if admit(hi) {
		b.admLE = hi
		return
	}
	if !admit(lo) {
		b.inadGE = lo
		return
	}
	b.admLE = lo
	b.inadGE = hi
	for b.inadGE-b.admLE > admissMargin/4 {
		mid := b.admLE + (b.inadGE-b.admLE)/2
		if mid <= b.admLE || mid >= b.inadGE {
			break
		}
		if admit(mid) {
			b.admLE = mid
		} else {
			b.inadGE = mid
		}
	}
}

// sinkBounds mirrors Sink.RExt's mapping (anything that is not the 30-fin
// sink evaluates as the 18-fin sink, so it shares its bounds exactly).
func sinkBounds(p *poolEntry, sink Sink) *admissBounds {
	if sink == Sink30Fin {
		return &p.bounds[1]
	}
	return &p.bounds[0]
}

func (c *AdmissCache) growPool() {
	old := c.pool
	c.pool = newPool(2 * len(old))
	mask := uint64(len(c.pool) - 1)
	for i := range old {
		if math.IsNaN(float64(old[i].dynW)) {
			continue
		}
		h := poolHash(old[i].dynW)
		for !math.IsNaN(float64(c.pool[h&mask].dynW)) {
			h++
		}
		c.pool[h&mask] = old[i]
	}
}

func poolHash(dynW units.Watts) uint64 {
	h := math.Float64bits(float64(dynW)) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// Ladder returns the cached per-P-state dynamic-power ladder for the power
// curve identified by dynMax, computing it via fill (called once per index,
// in order) on first sight. fill must be a pure function of dynMax — two
// callers passing bit-equal dynMax values must produce bit-equal ladders —
// which holds for Benchmark.DynamicPowerAt since DynMax fully determines the
// curve. Like the shared pool, the ladder table is insert-only and
// single-goroutine. The returned slice must not be modified.
func (c *AdmissCache) Ladder(dynMax units.Watts, fill func(k int) units.Watts) []units.Watts {
	i := c.ladSlot(dynMax, fill)
	return c.ladRows[i*c.width : (i+1)*c.width : (i+1)*c.width]
}

// ladSlot finds or inserts the ladder-table slot for dynMax, filling the
// ladder row on insert.
func (c *AdmissCache) ladSlot(dynMax units.Watts, fill func(k int) units.Watts) int {
	if c.ladKeys == nil {
		c.ladKeys = make([]units.Watts, 64)
		nan := units.Watts(math.NaN())
		for i := range c.ladKeys {
			c.ladKeys[i] = nan
		}
		c.ladRows = make([]units.Watts, 64*c.width)
		c.thrRows = make([]admissBounds, 64*2*c.width)
		c.thrBuilt = make([]uint8, 64)
	}
	if 2*c.ladLive >= len(c.ladKeys) {
		c.growLadders()
	}
	mask := uint64(len(c.ladKeys) - 1)
	h := poolHash(dynMax)
	for {
		i := int(h & mask)
		if c.ladKeys[i] == dynMax {
			return i
		}
		if math.IsNaN(float64(c.ladKeys[i])) {
			c.ladKeys[i] = dynMax
			c.ladLive++
			row := c.ladRows[i*c.width : (i+1)*c.width : (i+1)*c.width]
			for k := range row {
				row[k] = fill(k)
			}
			return i
		}
		h++
	}
}

// LadderBounds returns the curve's dynamic-power ladder (exactly Ladder's
// row) together with the boundary snapshot for sink, building the snapshot
// from the shared pool's seeded bounds on first use (nil with the pool
// disabled). Snapshots are sound even after later probes tighten the live
// pool: every snapshot bound was proven by direct evaluation when
// recorded, pool admLE only ever rises and inadGE only ever falls, so any
// verdict the snapshot decides, the live bounds — and a fresh evaluation —
// decide identically; probes the snapshot cannot decide fall through to
// the live cache in AdmissibleRow.
func (c *AdmissCache) LadderBounds(dynMax units.Watts, fill func(k int) units.Watts, sink Sink, leak Leakage) ([]units.Watts, BoundsRow) {
	i := c.ladSlot(dynMax, fill)
	lad := c.ladRows[i*c.width : (i+1)*c.width : (i+1)*c.width]
	if c.pool == nil {
		return lad, nil
	}
	si := 0
	if sink == Sink30Fin {
		si = 1
	}
	base := (i*2 + si) * c.width
	thr := BoundsRow(c.thrRows[base : base+c.width : base+c.width])
	if c.thrBuilt[i]&(1<<si) == 0 {
		for k := range thr {
			thr[k] = *c.poolBounds(lad[k], sink, leak)
		}
		c.thrBuilt[i] |= 1 << si
	}
	return lad, thr
}

func (c *AdmissCache) growLadders() {
	oldKeys, oldRows := c.ladKeys, c.ladRows
	oldThr, oldBuilt := c.thrRows, c.thrBuilt
	c.ladKeys = make([]units.Watts, 2*len(oldKeys))
	nan := units.Watts(math.NaN())
	for i := range c.ladKeys {
		c.ladKeys[i] = nan
	}
	c.ladRows = make([]units.Watts, len(c.ladKeys)*c.width)
	c.thrRows = make([]admissBounds, len(c.ladKeys)*2*c.width)
	c.thrBuilt = make([]uint8, len(c.ladKeys))
	mask := uint64(len(c.ladKeys) - 1)
	for i := range oldKeys {
		if math.IsNaN(float64(oldKeys[i])) {
			continue
		}
		h := poolHash(oldKeys[i])
		for !math.IsNaN(float64(c.ladKeys[h&mask])) {
			h++
		}
		j := int(h & mask)
		c.ladKeys[j] = oldKeys[i]
		copy(c.ladRows[j*c.width:(j+1)*c.width], oldRows[i*c.width:(i+1)*c.width])
		copy(c.thrRows[j*2*c.width:(j+1)*2*c.width], oldThr[i*2*c.width:(i+1)*2*c.width])
		c.thrBuilt[j] = oldBuilt[i]
	}
}

// Admissible reports PredictTwoStep(ambient, dynW, sink, leak) <= TempLimit
// for the entity's idx-th P-state, via the recorded bounds when they decide
// the probe and a fresh evaluation (recorded into the bounds) otherwise.
// sink and leak must be fixed per entity for the lifetime of the cache.
func (c *AdmissCache) Admissible(entity, idx int, ambient units.Celsius, dynW units.Watts, sink Sink, leak Leakage) bool {
	e := &c.e[entity*c.width+idx]
	if e.dynW == dynW {
		if ambient == e.admLE || ambient <= e.admLE-admissMargin {
			return true
		}
		if ambient == e.inadGE || ambient >= e.inadGE+admissMargin {
			return false
		}
	} else {
		e.dynW = dynW
		e.admLE = units.Celsius(math.Inf(-1))
		e.inadGE = units.Celsius(math.Inf(1))
	}
	var b *admissBounds
	if c.pool != nil {
		b = c.poolBounds(dynW, sink, leak)
		if ambient == b.admLE || ambient <= b.admLE-admissMargin {
			if ambient > e.admLE {
				e.admLE = ambient
			}
			return true
		}
		if ambient == b.inadGE || ambient >= b.inadGE+admissMargin {
			if ambient < e.inadGE {
				e.inadGE = ambient
			}
			return false
		}
	}
	ok := PredictTwoStep(ambient, dynW, sink, leak) <= TempLimit
	if ok {
		if ambient > e.admLE {
			e.admLE = ambient
		}
		if b != nil && ambient > b.admLE {
			b.admLE = ambient
		}
	} else {
		if ambient < e.inadGE {
			e.inadGE = ambient
		}
		if b != nil && ambient < b.inadGE {
			b.inadGE = ambient
		}
	}
	return ok
}

// AdmissibleRow is Admissible with a LadderBounds snapshot fast path: when
// row is non-nil and its bounds decide the probe — under the same
// equality-replay and admissMargin rules as every other bounds level — the
// verdict costs two comparisons on a contiguous row, with no hashing and
// no per-entity state. Anything else falls through to Admissible. Every
// path returns exactly what a fresh PredictTwoStep comparison would; the
// fast path skips Admissible's bound-tightening side effects, which is
// sound because bounds only ever prove verdicts, never change them.
func (c *AdmissCache) AdmissibleRow(row BoundsRow, entity, idx int, ambient units.Celsius, dynW units.Watts, sink Sink, leak Leakage) bool {
	if ok, decided := row.Decides(idx, ambient); decided {
		return ok
	}
	return c.Admissible(entity, idx, ambient, dynW, sink, leak)
}

// Decides reports whether the snapshot's bounds alone decide the idx-th
// P-state's verdict at ambient, under the same equality-replay and
// admissMargin rules as every other bounds level, and if so the verdict —
// exactly what a fresh PredictTwoStep comparison would return. A nil row
// decides nothing.
func (row BoundsRow) Decides(idx int, ambient units.Celsius) (ok, decided bool) {
	if row == nil {
		return false, false
	}
	b := &row[idx]
	if ambient == b.admLE || ambient <= b.admLE-admissMargin {
		return true, true
	}
	if ambient == b.inadGE || ambient >= b.inadGE+admissMargin {
		return false, true
	}
	return false, false
}
