package phase

import (
	"sync"
	"sync/atomic"

	"quantpar/internal/comm"
	"quantpar/internal/sim"
)

// Process-wide cache counters, read through Hits / Misses / SimEvents the
// same way machine.Builds reads the build count.
var (
	hits      atomic.Int64
	misses    atomic.Int64
	simEvents atomic.Int64
	disabled  atomic.Bool
)

// Hits returns the number of steps replayed from the memo cache since
// process start.
func Hits() int64 { return hits.Load() }

// Misses returns the number of memoizable steps that had to be simulated
// (and were then stored) since process start.
func Misses() int64 { return misses.Load() }

// SimEvents returns the total number of discrete simulation events
// processed by the wrapped routers since process start. Replayed steps
// contribute nothing — that is the point.
func SimEvents() int64 { return simEvents.Load() }

// SetEnabled turns the memo cache on or off process-wide. Off means every
// Route simulates, exactly as if each step carried NoMemo; results are
// identical either way. The equivalence tests flip this to prove it.
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether the memo cache is active.
func Enabled() bool { return !disabled.Load() }

// memoKey identifies one simulated phase outcome: the router (identity and
// constants), the pattern digest, and — for routers that draw jittered
// overheads — the RNG stream position the simulation started from.
type memoKey struct {
	router uint64
	d      comm.Digest
	rng    [4]uint64
	mode   uint8 // 0: rng not part of the key; 1: rng state included
}

// entry stores the complete outcome of one simulated phase. Entries are
// immutable after insertion; the finish slice may be read concurrently but
// never written (the comm.Result.Finish ownership contract).
type entry struct {
	elapsed  sim.Time
	uniform  sim.Time   // the common finish value when finish is nil
	finish   []sim.Time // nil when every processor finished at uniform
	stats    comm.Stats
	rngAfter [4]uint64
	hasRNG   bool
}

const (
	shardCount = 16
	// shardCap bounds each shard's entry count. The store stops inserting
	// when a shard is full; lookups and results are unaffected (a missing
	// entry only means re-simulation, which returns identical numbers), so
	// the cap cannot perturb outputs even though concurrent sweeps fill
	// shards in nondeterministic order.
	shardCap = 1 << 12
)

type shard struct {
	mu sync.Mutex
	m  map[memoKey]*entry
}

var store [shardCount]shard

func shardOf(k memoKey) *shard {
	return &store[(k.d.Lo^k.router^k.rng[0])&(shardCount-1)]
}

// ResetStore drops every memoized entry (counters are kept). Tests use it
// to isolate hit-rate assertions from entries left by earlier tests.
func ResetStore() {
	for i := range store {
		store[i].mu.Lock()
		store[i].m = nil
		store[i].mu.Unlock()
	}
}

// CachedRouter wraps a deterministic router with the phase memo cache. It
// implements comm.Router; machine constructors wrap every router they
// build, so the cache is transparent to the engine and the experiments.
//
// Like the routers themselves, a CachedRouter carries per-instance replay
// scratch and is not safe for concurrent use; the parallel sweep engine
// gives every worker its own machine, and the shared memo store underneath
// is internally locked.
type CachedRouter struct {
	inner   comm.Router
	fp      uint64
	usesRNG bool
	finish  []sim.Time // replay scratch for uniform finish vectors
	// faulty reports whether the inner router has an active fault plan;
	// faulty pricing depends on the plan's fault clock, which the pattern
	// digest cannot capture, so such steps must never be memoized (in
	// either direction). Nil when the inner router has no fault surface.
	faulty func() bool
}

// Wrap builds a memoizing façade over router r. fp is the router's
// identity fingerprint (see Fingerprinter); usesRNG declares whether r
// draws from the RNG it is handed (jittered overheads) — when true, the
// stream position becomes part of the memo key so replays advance the
// stream exactly as a simulation would have.
func Wrap(r comm.Router, fp uint64, usesRNG bool) *CachedRouter {
	c := &CachedRouter{inner: r, fp: fp, usesRNG: usesRNG}
	if f, ok := r.(interface{ FaultsActive() bool }); ok {
		c.faulty = f.FaultsActive
	}
	return c
}

// Name returns the wrapped router's name.
func (c *CachedRouter) Name() string { return c.inner.Name() }

// Procs returns the wrapped router's processor count.
func (c *CachedRouter) Procs() int { return c.inner.Procs() }

// Unwrap returns the underlying router.
func (c *CachedRouter) Unwrap() comm.Router { return c.inner }

// Route prices the step, replaying a stored outcome when the phase has
// been simulated before and simulating (then storing) otherwise. Steps
// marked NoMemo bypass the cache entirely in both directions.
func (c *CachedRouter) Route(step *comm.Step, rng *sim.RNG) comm.Result {
	if step.NoMemo || disabled.Load() || (c.faulty != nil && c.faulty()) {
		res := c.inner.Route(step, rng)
		simEvents.Add(int64(res.Events))
		return res
	}

	d := step.Memo
	if d.IsZero() {
		d = DigestStep(step)
	}
	k := memoKey{router: c.fp, d: d}
	if c.usesRNG && rng != nil {
		k.rng = rng.State()
		k.mode = 1
	}
	sh := shardOf(k)
	sh.mu.Lock()
	e := sh.m[k]
	sh.mu.Unlock()

	if e != nil {
		hits.Add(1)
		if e.hasRNG && rng != nil {
			rng.SetState(e.rngAfter)
		}
		finish := e.finish
		if finish == nil {
			finish = c.uniformFinish(e.uniform)
		}
		return comm.Result{Elapsed: e.elapsed, Finish: finish, Stats: e.stats, Replayed: true}
	}

	res := c.inner.Route(step, rng)
	misses.Add(1)
	simEvents.Add(int64(res.Events))

	ne := &entry{elapsed: res.Elapsed, stats: res.Stats}
	if c.usesRNG && rng != nil {
		ne.rngAfter = rng.State()
		ne.hasRNG = true
	}
	if uniform, v := uniformValue(res.Finish); uniform {
		ne.uniform = v
	} else {
		ne.finish = append([]sim.Time(nil), res.Finish...)
	}
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[memoKey]*entry)
	}
	if len(sh.m) < shardCap {
		sh.m[k] = ne
	}
	sh.mu.Unlock()
	return res
}

// uniformValue reports whether every finish time is exactly equal (the
// overwhelmingly common case: barrier steps and SIMD steps collapse the
// vector to one value) and returns that value.
func uniformValue(finish []sim.Time) (bool, sim.Time) {
	if len(finish) == 0 {
		return true, 0
	}
	v := finish[0]
	for _, f := range finish[1:] {
		if f != v {
			return false, 0
		}
	}
	return true, v
}

// uniformFinish fills the replay scratch with one value for every
// processor.
func (c *CachedRouter) uniformFinish(v sim.Time) []sim.Time {
	if c.finish == nil {
		c.finish = make([]sim.Time, c.inner.Procs())
	}
	f := c.finish
	for i := range f {
		f[i] = v
	}
	return f
}
