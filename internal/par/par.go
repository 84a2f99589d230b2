// Package par provides the processor count the simulator sizes its
// parallelism by, and a reusable worker pool for loops that split into
// contiguous, ordered shards.
//
// Work is expressed as a loop over [0, n) split into contiguous, ordered
// shards: DoN(shards, n, fn) calls fn(shard, lo, hi) once per shard with
// shard boundaries that tile [0, n) in increasing order. The determinism
// contract is split between this package and its callers:
//
//   - par guarantees shards are contiguous, disjoint, ordered by index,
//     and that DoN returns only after every shard completed;
//   - callers guarantee fn's writes for shard s touch only state owned by
//     indices [lo, hi) plus a per-shard output buffer, and that per-shard
//     outputs are merged in shard order afterwards.
//
// Under those rules results are bit-identical for any shard count, so the
// count is purely a throughput decision, which Shards makes for a caller
// that owns the whole machine (the graph builder's per-vertex sort). With
// one shard DoN is a plain call: no pool, no atomics, no allocation. The
// protocol engine does not shard: core.RunManyLanes runs whole bundles of
// trials on its own worker pool, sized by Refresh.
//
// The pool's goroutines are started once and reused for every call in the
// process. Submission never blocks: the caller always runs shard 0 itself,
// and a shard the pool has no room for runs on the caller too, so any
// number of concurrent callers make progress. Workers only ever run
// shards, which is why fn must not call back into this package: a worker
// waiting on shards queued behind itself would never see them run.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// call is one multi-shard DoN in flight. Calls are recycled through
// freeCalls so steady-state dispatch allocates nothing.
type call struct {
	fn        func(shard, lo, hi int)
	n, shards int
	wg        sync.WaitGroup
}

// run executes shard s: the balanced split [s*n/shards, (s+1)*n/shards)
// never produces an empty or out-of-range shard for any shards <= n.
func (c *call) run(s int) {
	c.fn(s, s*c.n/c.shards, (s+1)*c.n/c.shards)
}

// task is one shard of a call, passed to the workers by value.
type task struct {
	c     *call
	shard int
}

var (
	// work is the queue of the process-wide worker pool (see sharedPool).
	poolOnce sync.Once
	work     chan task

	// freeCalls recycles call records. 64 covers every concurrent
	// multi-shard caller a process plausibly has; beyond that, calls are
	// allocated and dropped.
	freeCalls = make(chan *call, 64)

	// procs caches runtime.GOMAXPROCS(0): querying it takes a runtime
	// lock, too expensive for per-round calls. Refresh updates it; a stale
	// value changes only how much physical parallelism is used, never a
	// result.
	procs atomic.Int32
)

// Procs returns the cached processor count, initializing it on first use.
func Procs() int {
	if p := procs.Load(); p > 0 {
		return int(p)
	}
	return Refresh()
}

// Refresh re-reads runtime.GOMAXPROCS(0) into the cache and returns it.
// core.RunManyLanes calls it once per sweep and sizes its bundle pool from
// the returned value.
func Refresh() int {
	p := runtime.GOMAXPROCS(0)
	procs.Store(int32(p))
	return p
}

// sharedPool starts the workers on first use, sized to the processor count
// at that moment. Worker count affects only physical parallelism, never
// results, so a later GOMAXPROCS change at worst under- or over-subscribes
// the machine.
func sharedPool() chan<- task {
	poolOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		// Room for every worker to have a few shards queued behind the one
		// it runs, so a burst of callers rarely falls back to inline.
		work = make(chan task, 4*workers)
		for i := 0; i < workers; i++ {
			go func() {
				for t := range work {
					t.c.run(t.shard)
					t.c.wg.Done()
				}
			}()
		}
	})
	return work
}

// Shards returns the number of contiguous shards Do will split n items
// into, given the per-shard minimum grain: enough to occupy every
// processor, but never so many that a shard drops below grain items.
func Shards(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	s := Procs()
	if m := n / grain; s > m {
		s = m
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Do is DoN at Shards(n, grain) shards, for callers that own the whole
// machine and size nothing per shard.
func Do(n, grain int, fn func(shard, lo, hi int)) {
	DoN(Shards(n, grain), n, fn)
}

// DoN splits [0, n) into the given number of contiguous shards (at most n,
// at least one) and runs fn(shard, lo, hi) for each, returning when all
// are done. With one shard it calls fn(0, 0, n) inline. fn must confine
// its writes to state owned by [lo, hi) and per-shard buffers (see the
// package comment); callers that size per-shard buffers size them for the
// count they pass.
func DoN(shards, n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		fn(0, 0, n)
		return
	}
	var c *call
	select {
	case c = <-freeCalls:
	default:
		c = new(call)
	}
	c.fn, c.n, c.shards = fn, n, shards
	c.wg.Add(shards - 1)
	pool := sharedPool()
	for s := 1; s < shards; s++ {
		// Never block on a busy pool: running the shard inline keeps DoN
		// deadlock-free and self-balancing under concurrent callers.
		select {
		case pool <- task{c, s}:
		default:
			c.run(s)
			c.wg.Done()
		}
	}
	c.run(0)
	c.wg.Wait()
	c.fn = nil
	select {
	case freeCalls <- c:
	default:
	}
}
