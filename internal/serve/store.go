package serve

import (
	"slices"
	"sync"

	"rumor/internal/lru"
)

// store is the sharded job table and result cache. Job IDs are SHA-256
// hex, so the first byte of the hash is a uniform shard selector: intake,
// dedup probes, and completion for different IDs land on different locks
// instead of serializing on one server-wide mutex. Each shard pairs the
// in-flight job map with its slice of the completed-result LRU, so the
// "always findable" invariant — an accepted job is in the map until the
// instant its payload is in the cache — holds per shard under one lock.
//
// Below the memory tiers sits the optional disk spill (see spill.go):
// shard LRUs hand capacity-evicted payloads to their eviction hook, which
// parks them in the shard until the file is written, and find falls
// through memory → parked → disk, promoting those hits back into the
// owning shard. So the invariant extends downward: an evicted payload is
// findable at every instant, never "in neither memory nor disk yet".
type store struct {
	shards []storeShard
	spill  *spill // nil when no data dir is configured
}

// spillItem is one eviction whose disk write has not returned yet.
type spillItem struct {
	id string
	c  *completedJob
}

// storeShard is padded out to its own cache line so neighboring shards'
// locks do not false-share under concurrent intake.
type storeShard struct {
	mu    sync.Mutex
	jobs  map[string]*Job
	cache *lru.Cache[string, *completedJob]
	// pending holds capacity evictions (the LRU hook fires during Put,
	// under mu) from the moment they leave the LRU until their file is in
	// place. The caller whose Put displaced them writes them after
	// releasing mu, so disk I/O never blocks the shard, and find serves
	// them from here meanwhile.
	pending []spillItem
	_       [64 - (8+8+8+24)%64]byte
}

// put inserts into the shard's LRU (mu held) and returns the evictions
// that displaced, for the caller to hand to spillEvicted once it has
// released mu.
func (sh *storeShard) put(id string, c *completedJob) []spillItem {
	n := len(sh.pending)
	sh.cache.Put(id, c)
	return slices.Clone(sh.pending[n:])
}

// spillEvicted writes put's evictions with the shard unlocked, releasing
// each from pending only after its write has returned.
func (st *store) spillEvicted(sh *storeShard, items []spillItem) {
	for _, it := range items {
		st.spill.write(it.id, it.c)
		sh.mu.Lock()
		if i := slices.Index(sh.pending, it); i >= 0 {
			sh.pending = slices.Delete(sh.pending, i, i+1)
		}
		sh.mu.Unlock()
	}
}

// newStore builds nshards shards whose LRU slices sum to (at least)
// cacheSize entries. The bound is enforced per shard, so a pathological
// key skew can retain slightly less than cacheSize globally — the price
// of not sharing one lock.
func newStore(nshards, cacheSize int, sp *spill) *store {
	if nshards < 1 {
		nshards = 1
	}
	per := (cacheSize + nshards - 1) / nshards
	if per < 1 {
		per = 1
	}
	st := &store{shards: make([]storeShard, nshards), spill: sp}
	for i := range st.shards {
		sh := &st.shards[i]
		sh.jobs = make(map[string]*Job)
		sh.cache = lru.New[string, *completedJob](per)
		if sp != nil {
			// Put runs under sh.mu, so the hook only parks; the Put caller
			// does the file I/O once the shard is unlocked. Failures are
			// deterministic to recompute and never earn a disk slot.
			sh.cache.OnEvict(func(id string, c *completedJob) {
				if !c.failed() {
					sh.pending = append(sh.pending, spillItem{id, c})
				}
			})
		}
	}
	return st
}

// shardFor maps an ID to its shard by hash prefix. IDs this server mints
// are lowercase hex; anything else (a malformed GET /v1/jobs/{id}) maps
// to shard 0, where it will simply miss.
func (st *store) shardFor(id string) *storeShard {
	if len(id) < 2 {
		return &st.shards[0]
	}
	hi, ok1 := hexVal(id[0])
	lo, ok2 := hexVal(id[1])
	if !ok1 || !ok2 {
		return &st.shards[0]
	}
	return &st.shards[int(hi<<4|lo)%len(st.shards)]
}

// hexVal decodes one character of the ID alphabet (lowercase hex, the
// alphabet cas.ValidName admits).
func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// find resolves an ID anywhere in the store: the in-flight map, the
// memory cache, then the disk tier — a parked eviction counts as a disk
// hit served from the write buffer. With promote, a disk hit is also
// inserted into the owning shard's LRU so repeats are memory-speed (the
// promotion may evict, which re-spills — an idempotent rewrite of
// identical bytes). Promotion is for submissions, where reuse is
// likely; read-only status/stream lookups pass promote=false so a poll
// sweep over cold IDs cannot evict hot entries or churn spill writes —
// the trade-off is that each such lookup re-reads and re-decodes the
// spill file (polling a cold ID is I/O per poll, never cache pollution).
// The returned source is meaningful only when found.
func (st *store) find(id string, promote bool) (j *Job, c *completedJob, src source, ok bool) {
	sh := st.shardFor(id)
	sh.mu.Lock()
	if j, ok := sh.jobs[id]; ok {
		sh.mu.Unlock()
		return j, nil, sourceDedup, true
	}
	if c, ok := sh.cache.Get(id); ok {
		sh.mu.Unlock()
		return nil, c, sourceCache, true
	}
	for _, it := range sh.pending {
		if it.id == id {
			c, ok = it.c, true
			break
		}
	}
	sh.mu.Unlock()
	if !ok {
		if st.spill == nil {
			return nil, nil, "", false
		}
		if c, ok = st.spill.read(id); !ok {
			return nil, nil, "", false
		}
	}
	if !promote {
		return nil, c, sourceDisk, true
	}
	sh.mu.Lock()
	// Re-check under the lock: the job may have been resubmitted or the
	// payload re-cached while we read the file. Memory wins — it is the
	// same bytes or fresher state.
	if j, live := sh.jobs[id]; live {
		sh.mu.Unlock()
		return j, nil, sourceDedup, true
	}
	if mc, cached := sh.cache.Get(id); cached {
		sh.mu.Unlock()
		return nil, mc, sourceCache, true
	}
	evicted := sh.put(id, c)
	sh.mu.Unlock()
	st.spillEvicted(sh, evicted) // promotion may have evicted; re-spill is idempotent
	return nil, c, sourceDisk, true
}

// complete publishes a finished job's payload: atomically (per shard)
// moves the ID from the in-flight map to the result cache, calls
// published, then writes any eviction this displaced to disk — both with
// the shard unlocked, and the file I/O off the waiters' path.
func (st *store) complete(id string, c *completedJob, published func()) {
	sh := st.shardFor(id)
	sh.mu.Lock()
	delete(sh.jobs, id)
	evicted := sh.put(id, c)
	sh.mu.Unlock()
	published()
	st.spillEvicted(sh, evicted)
}

// jobsLive counts in-flight jobs across shards.
func (st *store) jobsLive() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += len(sh.jobs)
		sh.mu.Unlock()
	}
	return n
}

// cacheLen counts resident completed payloads across shards.
func (st *store) cacheLen() int {
	n := 0
	for i := range st.shards {
		n += st.shards[i].cache.Len()
	}
	return n
}
