// Package cache provides the content-addressed result cache of the serving
// layer: a resolved sweep cell is fingerprinted into a canonical Key, and the
// aggregated sim.TrialStats it produces are memoised under that key with an
// LRU bound. Concurrent requests for the same key collapse into a single
// computation (singleflight), so N simultaneous identical sweeps cost one
// simulation. Everything the engine computes is a pure function of the cell
// configuration and seed (see the determinism contract in DESIGN.md), which
// is what makes caching by content safe: a key can never map to two
// different results — and what makes persistence safe: a cache backed by a
// durable Store (see store.go) warm-starts across restarts, because a
// persisted entry can never go stale, only its encoding can.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"

	"antsearch/internal/scenario"
	"antsearch/internal/sim"
)

// Key is the canonical fingerprint of a cell configuration. Keys built by
// CellKey carry a visible "v<KeySchemaVersion>:" prefix, so a durable store
// written under an older keying scheme is detectably stale: its keys are
// skipped on load instead of being silently served for the wrong cell.
type Key string

// KeySchemaVersion is the version embedded in every CellKey. Bump it whenever
// the fingerprint construction changes (fields added, rendering or separator
// changed), so persisted entries keyed by the old scheme are ignored rather
// than misread. v1 was the unprefixed, \x1f-separated scheme of PR 2; v2
// length-prefixes every part (collision-proof) and added this prefix; v3
// added the fault-plan part.
const KeySchemaVersion = 3

// keyPrefix is the prefix of a current-schema Key, derived from
// KeySchemaVersion so bumping the version cannot leave the prefix behind.
var keyPrefix = fmt.Sprintf("v%d:", KeySchemaVersion)

// CurrentSchema reports whether the key was built by this release's keying
// scheme. Warm-starting a cache drops persisted entries for which this is
// false.
func (k Key) CurrentSchema() bool { return strings.HasPrefix(string(k), keyPrefix) }

// fingerprint hashes an ordered list of values into a Key. Every value is
// rendered with %v and length-prefixed before hashing, so distinct part
// lists can never collide by concatenation — not even when a part contains
// the rendering of another part or any would-be separator byte.
func fingerprint(parts ...any) Key {
	h := sha256.New()
	for _, p := range parts {
		s := fmt.Sprintf("%v", p)
		fmt.Fprintf(h, "%d:%s", len(s), s) //antlint:allow storeerr hash.Hash writes never fail
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// CellKey fingerprints a resolved cell together with the sweep parameters
// that built its factory: scenario name, every Params knob, k, D, trial
// budget, time cap, seed, the treasure placement and the resolved fault
// plan. The fault part reads the cell's plan, not the raw Params knobs: grid
// expansion may resolve the plan from the scenario's registered default (the
// -faulty variants), and it is the resolved plan the engine executes. Two
// cells share a key exactly when the engine is guaranteed to produce
// identical TrialStats for them. The returned key carries the schema-version
// prefix (see Key).
func CellKey(c scenario.Cell, p scenario.Params) Key {
	faults := "none" // fault.Plan.String() of an inactive plan
	if c.Faults != nil {
		faults = c.Faults.String()
	}
	return Key(keyPrefix) + fingerprint(
		"scenario", c.Scenario,
		"eps", p.Epsilon, "delta", p.Delta, "rho", p.Rho, "bias", p.Bias, "mu", p.Mu, "paramD", p.D,
		"k", c.K, "d", c.D, "trials", c.Trials, "maxTime", c.MaxTime, "seed", c.Seed,
		// The runner always places the treasure on the uniform ring at D; the
		// part stays so every key keeps its bytes.
		"adversary", "uniform-ring",
		"faults", faults,
	)
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts calls served from a completed cached entry.
	Hits uint64 `json:"hits"`
	// Misses counts calls that started a new computation.
	Misses uint64 `json:"misses"`
	// Joined counts calls collapsed into an already-running computation for
	// the same key (the singleflight path).
	Joined uint64 `json:"joined"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of cached results currently held.
	Entries int `json:"entries"`
	// InFlight is the number of computations currently running.
	InFlight int `json:"in_flight"`
	// Loaded counts entries warm-started from the durable store at
	// construction (0 without a store).
	Loaded uint64 `json:"loaded"`
	// Persisted counts entries successfully appended to the durable store.
	Persisted uint64 `json:"persisted"`
	// StoreErrors counts failed store appends and snapshots. The cache keeps
	// serving from memory when the store misbehaves; this counter is how the
	// degradation surfaces.
	StoreErrors uint64 `json:"store_errors"`
	// StoreRetries counts append attempts the store retried after a
	// transient failure (0 for stores without retry support). A non-zero
	// value with zero StoreErrors means the retries rode the failures out.
	StoreRetries uint64 `json:"store_retries"`
}

// Cache is a bounded, concurrency-safe LRU of TrialStats keyed by cell
// fingerprints, with singleflight collapsing. The zero value is not usable;
// construct with New.
type Cache struct {
	// mu guards every field below. The lockio marker bans blocking I/O while
	// it is held: store writes happen off-lock via the write-behind in Do
	// (PR 5's contract), so a sweep never stalls behind the disk.
	//
	//antlint:lockio
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	entries  map[Key]*list.Element
	flights  map[Key]*flight
	store    Store // nil = memory-only

	hits, misses, joined, evictions uint64
	loaded, persisted, storeErrors  uint64
}

// entry is one cached result, stored in the LRU list's elements.
type entry struct {
	key Key
	val sim.TrialStats
}

// flight is one in-progress computation other callers may join.
type flight struct {
	done chan struct{} // closed when val/err are set
	val  sim.TrialStats
	err  error
}

// DefaultCapacity bounds the cache when New is given a non-positive capacity.
// A cached cell is a few kilobytes (two bounded quantile summaries dominate),
// so the default keeps the cache in the tens of megabytes at worst.
const DefaultCapacity = 4096

// New returns an empty cache holding at most capacity entries (<= 0 selects
// DefaultCapacity).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element),
		flights:  make(map[Key]*flight),
	}
}

// NewWithStore returns a cache backed by a durable store: it warm-starts
// from the store's persisted entries (so a restarted process serves
// previously computed cells without re-running a trial), appends every fresh
// computation write-behind, and compacts on Snapshot/Close. A nil store
// yields a plain in-memory cache, identical to New.
//
// Persisted entries whose key predates the current schema
// (!Key.CurrentSchema()) are dropped during the warm start: an old keying
// scheme must cost recomputation, never a wrong answer. DiskStore already
// skips (and counts) them itself; the guard here covers every other Store. Loading replays
// entries oldest-first, so LRU recency survives the restart, and the LRU
// bound applies during the replay — a store larger than capacity warm-starts
// the most recently snapshotted entries.
func NewWithStore(capacity int, store Store) (*Cache, error) {
	c := New(capacity)
	if store == nil {
		return c, nil
	}
	c.store = store
	err := store.Load(func(e Entry) {
		if !e.Key.CurrentSchema() {
			return
		}
		c.mu.Lock()
		c.insertLocked(e.Key, e.Stats)
		c.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	// Count what actually survived the replay: the log may duplicate
	// snapshot records (an append racing a compaction lands in both), and a
	// store larger than capacity evicts during the replay — neither
	// duplicates nor replay-dropped entries are "warm-started", and replay
	// evictions are not runtime evictions, so both counters reset to the
	// post-load truth.
	c.mu.Lock()
	c.loaded = uint64(len(c.entries))
	c.evictions = 0
	c.mu.Unlock()
	return c, nil
}

// Snapshot compacts the current cache contents into the store (a no-op
// without one). It holds the cache lock for the duration of the disk write,
// which is what makes the durability invariant simple: any entry inserted
// before the snapshot is in it, and any entry inserted after will append to
// the freshly truncated log — nothing acknowledged is ever lost, at the cost
// of briefly blocking inserts (snapshots are rare: periodic and at
// shutdown).
func (c *Cache) Snapshot() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store == nil {
		return nil
	}
	entries := make([]Entry, 0, len(c.entries))
	for el := c.ll.Back(); el != nil; el = el.Prev() { // oldest first: reload preserves recency
		e := el.Value.(*entry)
		entries = append(entries, Entry{Key: e.key, Stats: e.val})
	}
	if err := c.store.Snapshot(entries); err != nil {
		c.storeErrors++
		return err
	}
	return nil
}

// Close snapshots the cache into the store and closes it (a no-op without
// one). The cache itself stays usable as a memory-only cache afterwards.
// Snapshot and close failures are independent losses (the compaction and the
// final flush of the log handle), so both are joined into the returned error
// rather than the first masking the second, and each counts as a store error.
func (c *Cache) Close() error {
	err := c.Snapshot() // counts its own failure in storeErrors
	c.mu.Lock()
	store := c.store
	c.store = nil
	c.mu.Unlock()
	if store == nil {
		return err
	}
	if cerr := store.Close(); cerr != nil {
		c.mu.Lock()
		c.storeErrors++
		c.mu.Unlock()
		err = errors.Join(err, cerr)
	}
	return err
}

// Do returns the value cached under key, computing it with compute on a miss.
// Concurrent calls for the same key run compute exactly once: the first
// caller computes, later callers block until it finishes and share the
// outcome. cached reports whether the caller avoided computing (a cache hit
// or a joined flight). Errors are never cached — a failed computation leaves
// the key empty so the next call retries. A joined caller whose own context
// is done stops waiting and returns the context error; a joined caller whose
// *leader* died of the leader's own cancellation does not inherit that death:
// it retries, becoming the new leader if nobody beat it to it, so one
// client's disconnect never fails another client's identical request.
func (c *Cache) Do(ctx context.Context, key Key, compute func(ctx context.Context) (sim.TrialStats, error)) (val sim.TrialStats, cached bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.hits++
			c.ll.MoveToFront(el)
			val = el.Value.(*entry).val
			c.mu.Unlock()
			return val, true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.joined++
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return sim.TrialStats{}, false, ctx.Err()
			}
			if f.err == nil {
				return f.val, true, nil
			}
			if ctx.Err() != nil {
				return sim.TrialStats{}, false, ctx.Err()
			}
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				continue // the leader's context died, not ours: retry
			}
			return sim.TrialStats{}, true, f.err
		}
		c.misses++
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		f.val, f.err = compute(ctx)

		c.mu.Lock()
		delete(c.flights, key)
		var store Store
		if f.err == nil {
			c.insertLocked(key, f.val)
			store = c.store
		}
		c.mu.Unlock()
		close(f.done)
		if store != nil {
			// Write-behind: the append happens off the cache lock, after the
			// in-memory insert, so a concurrent Snapshot either already holds
			// this entry (insert preceded its copy) or this append lands in
			// the post-compaction log — either way the entry is durable.
			// Store failures degrade to memory-only serving, counted, never
			// surfaced to the caller who asked for a simulation result.
			err := store.Append(Entry{Key: key, Stats: f.val}) //antlint:allow storeerr deliberate shadow: an append failure is counted below, never surfaced to the caller
			c.mu.Lock()
			if err != nil {
				c.storeErrors++
			} else {
				c.persisted++
			}
			c.mu.Unlock()
		}
		return f.val, false, f.err
	}
}

// Contains reports whether key holds a completed cached result. Unlike a Do
// on a cached key it neither counts a hit nor refreshes LRU recency — it
// exists for bookkeeping probes (checkpoint garbage collection asks "did
// this cell's final aggregate land?"), which must not distort the cache's
// access statistics or keep entries artificially warm.
func (c *Cache) Contains(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// insertLocked stores a computed value and enforces the LRU bound. The
// caller holds c.mu.
func (c *Cache) insertLocked(key Key, val sim.TrialStats) {
	if el, ok := c.entries[key]; ok {
		// A concurrent computation for the same key may have finished while
		// this one ran (both started before either completed); the values
		// are identical by the determinism contract, so just refresh.
		c.ll.MoveToFront(el)
		el.Value.(*entry).val = val
		return
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, val: val})
	for len(c.entries) > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	st := Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Joined:      c.joined,
		Evictions:   c.evictions,
		Entries:     len(c.entries),
		InFlight:    len(c.flights),
		Loaded:      c.loaded,
		Persisted:   c.persisted,
		StoreErrors: c.storeErrors,
	}
	store := c.store
	c.mu.Unlock()
	// The retry counter lives in the store; read it off the cache lock so a
	// stats scrape never serialises behind it.
	if r, ok := store.(interface{ Retries() uint64 }); ok {
		st.StoreRetries = r.Retries()
	}
	return st
}
