// Package lru provides the size-bounded LRU cache behind the serving
// layer's completed-result cache and the experiment harness's graph
// memoization.
//
// Beyond plain Get/Put recency semantics, GetOrBuild gives each key
// build-exactly-once semantics under concurrency: the first caller for a
// key runs the builder while every concurrent caller for the same key
// blocks on the entry's sync.Once and receives the same value — the
// property the graph cache needs so two racing sweeps never both pay a
// paper-scale construction. Only completed entries occupy recency slots:
// an in-flight build neither evicts anything nor can be evicted, and a
// caller that decides its built value is not worth keeping (a failed
// graph construction, say) can Delete the key without ever having
// displaced a resident entry.
//
// Values are immutable once published: Put and Update replace the entry
// rather than overwriting its value, so readers that obtained an entry
// never race a writer.
//
// OnEvict installs a callback observing capacity evictions — the hook the
// serving layer's disk spill tier hangs off: an entry displaced by the
// size bound is handed to the callback (outside the cache lock) instead
// of vanishing. Replacements and explicit Deletes are not evictions and
// do not fire it.
package lru

import (
	"sync"
	"sync/atomic"
)

// entry is one cached key. Entries are nodes of an intrusive doubly-linked
// recency list guarded by the cache mutex; val is written exactly once,
// before ready is set, and never mutated afterwards (ready.Load provides
// the acquire edge for lock-free reads after once.Do).
type entry[K comparable, V any] struct {
	key        K
	once       sync.Once
	ready      atomic.Bool
	val        V
	err        error // failed build (GetOrBuildErr); never cached
	linked     bool  // member of the recency list (completed entries only)
	cost       int64 // charged against the byte budget while linked
	prev, next *entry[K, V]
}

// Cache is a size-bounded LRU map. The zero value is not usable; construct
// with New. All methods are safe for concurrent use. Builders passed to
// GetOrBuild run outside the cache lock, so they may themselves use the
// cache (for different keys) without deadlock.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	m         map[K]*entry[K, V]
	head      *entry[K, V] // most recently used
	tail      *entry[K, V] // least recently used
	nlinked   int          // completed entries in the recency list
	evictions int64
	onEvict   func(K, V) // capacity-eviction observer; may be nil

	// Byte-cost bound (SetCost): entries are charged costFn at link time
	// and eviction additionally runs while totalCost exceeds budget. An
	// entry-count bound alone lets 64 giant graphs pin hundreds of
	// gigabytes while 64 tiny ones waste the slots; the cost bound makes
	// residency proportional to what entries actually hold.
	costFn    func(K, V) int64
	budget    int64
	totalCost int64
}

// mapHintMax caps the map's initial size hint. Under a cost bound the
// entry count is a ceiling, not a forecast, and a map sized for it up
// front would cost its full footprint before the first Put.
const mapHintMax = 4096

// New returns a cache bounded to cap completed entries. cap < 1 is
// treated as 1: a cache that can hold nothing would turn GetOrBuild into
// "build every time" while still paying the locking.
func New[K comparable, V any](cap int) *Cache[K, V] {
	if cap < 1 {
		cap = 1
	}
	return &Cache[K, V]{cap: cap, m: make(map[K]*entry[K, V], min(cap, mapHintMax)+1)}
}

// OnEvict installs fn as the capacity-eviction observer: every entry the
// size bound displaces is passed to fn after the cache lock is released,
// so fn may use the cache (even for the evicted key) without deadlock.
// Entries removed by Delete or replaced by Put are not evictions and are
// not observed. Install the observer before the cache is shared; a nil fn
// removes it.
func (c *Cache[K, V]) OnEvict(fn func(K, V)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// SetCost bounds the cache by total entry cost in addition to the entry
// count: fn prices each entry when it links into the recency list, and
// insertion evicts from the LRU end while the total exceeds budget. The
// most recent entry is never evicted by the cost bound, so a single
// over-budget value still caches (evicting it would degrade GetOrBuild
// to build-every-time for every key). budget <= 0 or a nil fn removes
// the bound. Install before the cache is shared, like OnEvict; costs are
// sampled once per residency, so fn should price immutable state.
func (c *Cache[K, V]) SetCost(budget int64, fn func(K, V) int64) {
	c.mu.Lock()
	c.costFn = fn
	c.budget = budget
	c.mu.Unlock()
}

// Cost returns the total cost of linked entries and the budget. Both are
// zero until SetCost installs a pricing function.
func (c *Cache[K, V]) Cost() (total, budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalCost, c.budget
}

// Get returns the value cached for k, marking it most recently used.
// Entries whose builder has not finished yet are reported as misses: the
// value does not exist until the builder returns.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok || !e.ready.Load() || e.err != nil {
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// Put caches v under k, marks it most recently used, and evicts
// least-recently-used entries beyond capacity. Any previous entry —
// completed or with its builder still in flight — is replaced, never
// mutated: builders already holding the old entry still hand their
// callers the value they build.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	evicted, fn := c.replace(k, v), c.onEvict
	c.mu.Unlock()
	fire(fn, evicted)
}

// Update is a read-modify-write of k's completed entry under the cache
// lock: fn receives the current value and returns the new one, or false
// to leave the entry as it is. Two Updates of one key therefore never
// lose each other's change, as a Get followed by a Put can. The new value
// replaces the entry like Put does — priced afresh, marked most recently
// used, possibly evicting others. Absent keys and unfinished builds are
// not updated and fn is not called. fn runs under the lock, so it must
// not use the cache. Update reports whether the entry was replaced.
func (c *Cache[K, V]) Update(k K, fn func(V) (V, bool)) bool {
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok || !e.ready.Load() || e.err != nil {
		c.mu.Unlock()
		return false
	}
	v, ok := fn(e.val)
	if !ok {
		c.mu.Unlock()
		return false
	}
	evicted, onEvict := c.replace(k, v), c.onEvict
	c.mu.Unlock()
	fire(onEvict, evicted)
	return true
}

// replace swaps in a completed entry holding v for k and links it,
// returning what the link evicted. Caller holds mu.
func (c *Cache[K, V]) replace(k K, v V) []*entry[K, V] {
	c.detach(k)
	e := &entry[K, V]{key: k, val: v}
	e.once.Do(func() {})
	e.ready.Store(true)
	c.m[k] = e
	return c.link(e)
}

// fire hands capacity-evicted entries to the observer. Runs with the
// cache lock released.
func fire[K comparable, V any](fn func(K, V), evicted []*entry[K, V]) {
	if fn == nil {
		return
	}
	for _, e := range evicted {
		fn(e.key, e.val)
	}
}

// Delete removes k if present. An in-flight build of k finishes normally
// for the callers sharing it but is not retained.
func (c *Cache[K, V]) Delete(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.detach(k)
}

// GetOrBuild returns the value cached for k, building it with build on
// first use. Concurrent callers for the same key share one build: all
// block until the first caller's build returns, then receive its value.
// build runs outside the cache lock. The entry takes a recency slot (and
// may evict) only once the build completes.
func (c *Cache[K, V]) GetOrBuild(k K, build func() V) V {
	v, _ := c.GetOrBuildErr(k, func() (V, error) { return build(), nil })
	return v
}

// GetOrBuildErr is GetOrBuild for fallible builders. A build error is
// returned to every caller sharing that build and is never cached: the
// failed entry takes no recency slot (so a stream of invalid keys cannot
// evict resident values) and the key rebuilds on next use.
func (c *Cache[K, V]) GetOrBuildErr(k K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.m[k]
	if ok {
		if e.ready.Load() {
			c.moveToFront(e)
		}
	} else {
		e = &entry[K, V]{key: k}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.val, e.err = build()
		e.ready.Store(true)
		c.mu.Lock()
		// Link only if the build succeeded and the key still maps to this
		// entry (it may have been Put-replaced or Deleted while building);
		// forget failures entirely.
		var evicted []*entry[K, V]
		if c.m[k] == e {
			if e.err != nil {
				delete(c.m, k)
			} else {
				evicted = c.link(e)
			}
		}
		fn := c.onEvict
		c.mu.Unlock()
		fire(fn, evicted)
	})
	return e.val, e.err
}

// Len returns the number of resident entries (including ones whose
// builders are still running).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Cap returns the capacity bound.
func (c *Cache[K, V]) Cap() int { return c.cap }

// Evictions returns the number of entries evicted so far.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// detach removes k's entry from the map and, if linked, the recency
// list. Caller holds mu.
func (c *Cache[K, V]) detach(k K) {
	e, ok := c.m[k]
	if !ok {
		return
	}
	if e.linked {
		c.unlink(e)
	}
	delete(c.m, k)
}

// link puts a completed entry at the front of the recency list, evicts
// past capacity, and returns the evicted entries for the caller to hand
// to the observer once mu is released. Caller holds mu.
func (c *Cache[K, V]) link(e *entry[K, V]) []*entry[K, V] {
	e.linked = true
	c.nlinked++
	if c.costFn != nil {
		e.cost = c.costFn(e.key, e.val)
		c.totalCost += e.cost
	}
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
	// Evict from the tail; only linked (completed) entries are in the
	// list, so in-flight builds are never displaced. The cost bound never
	// evicts the entry just linked (nlinked > 1 guard).
	var evicted []*entry[K, V]
	for c.nlinked > c.cap || (c.budget > 0 && c.totalCost > c.budget && c.nlinked > 1) {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
		c.evictions++
		evicted = append(evicted, lru)
	}
	return evicted
}

// moveToFront marks e most recently used by splicing it to the list head
// in place: nlinked and totalCost are untouched, so a Get can never
// trigger an eviction — only insertions do. Caller holds mu.
func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if !e.linked || c.head == e {
		return
	}
	// e is not the head, so e.prev != nil and c.head != nil.
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev = nil
	e.next = c.head
	c.head.prev = e
	c.head = e
}

// unlink removes e from the recency list. Caller holds mu.
func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.linked = false
	c.nlinked--
	c.totalCost -= e.cost
	e.cost = 0
}
