package lru

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPutRecency(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" must evict it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Evictions())
	}
}

func TestPutReplace(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("replace: got %d, want 9", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestGetOrBuildBuildsOnce(t *testing.T) {
	c := New[string, int](4)
	var builds atomic.Int32
	const workers = 16
	var wg sync.WaitGroup
	got := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = c.GetOrBuild("k", func() int {
				builds.Add(1)
				return 42
			})
		}(w)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
	for w, v := range got {
		if v != 42 {
			t.Fatalf("worker %d got %d", w, v)
		}
	}
}

func TestGetOrBuildEvictionRebuilds(t *testing.T) {
	c := New[int, int](2)
	builds := 0
	get := func(k int) int {
		return c.GetOrBuild(k, func() int { builds++; return k * 10 })
	}
	get(1)
	get(2)
	get(3) // evicts 1
	if builds != 3 {
		t.Fatalf("builds = %d, want 3", builds)
	}
	if v := get(1); v != 10 { // rebuilt after eviction
		t.Fatalf("get(1) = %d, want 10", v)
	}
	if builds != 4 {
		t.Fatalf("builds after rebuild = %d, want 4", builds)
	}
	if v := get(3); v != 30 { // still resident: no rebuild
		t.Fatalf("get(3) = %d", v)
	}
	if builds != 4 {
		t.Fatalf("builds after hit = %d, want 4", builds)
	}
}

func TestGetDoesNotSeeUnfinishedBuild(t *testing.T) {
	c := New[string, int](2)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int)
	go func() {
		done <- c.GetOrBuild("slow", func() int {
			close(started)
			<-release
			return 7
		})
	}()
	<-started
	if _, ok := c.Get("slow"); ok {
		t.Fatal("Get returned a value whose build has not finished")
	}
	close(release)
	if v := <-done; v != 7 {
		t.Fatalf("build returned %d", v)
	}
	if v, ok := c.Get("slow"); !ok || v != 7 {
		t.Fatalf("Get after build = %d, %v", v, ok)
	}
}

func TestCapFloor(t *testing.T) {
	c := New[int, int](0)
	if c.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", c.Cap())
	}
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestPutDuringInflightBuild(t *testing.T) {
	// Put on a key whose builder is still running must detach the
	// in-flight entry completely: its later "eviction" must not delete the
	// fresh entry's map slot or skew the recency list.
	c := New[string, int](2)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int)
	go func() {
		done <- c.GetOrBuild("k", func() int {
			close(started)
			<-release
			return 1
		})
	}()
	<-started
	c.Put("k", 2)
	close(release)
	if v := <-done; v != 1 {
		t.Fatalf("in-flight builder's caller got %d, want its own build (1)", v)
	}
	if v, ok := c.Get("k"); !ok || v != 2 {
		t.Fatalf("Get(k) = %d, %v; want the Put value 2", v, ok)
	}
	// Churn the cache past capacity; the map and list must stay in sync.
	c.Put("a", 10)
	c.Put("b", 20) // capacity 2: evicts the least recently used of k/a
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b missing after churn")
	}
	c.Put("c", 30)
	c.Put("d", 40)
	if c.Len() != 2 {
		t.Fatalf("Len = %d after more churn, want 2", c.Len())
	}
	if v, ok := c.Get("d"); !ok || v != 40 {
		t.Fatalf("Get(d) = %d, %v", v, ok)
	}
}

func TestGetOrBuildErrNotCached(t *testing.T) {
	c := New[string, int](2)
	c.Put("resident", 1)
	c.Put("resident2", 2)
	boom := errors.New("boom")
	builds := 0
	for i := 0; i < 3; i++ {
		v, err := c.GetOrBuildErr("bad", func() (int, error) { builds++; return 0, boom })
		if err != boom || v != 0 {
			t.Fatalf("attempt %d: got %d, %v", i, v, err)
		}
	}
	if builds != 3 {
		t.Fatalf("failed builds ran %d times, want 3 (errors are not cached)", builds)
	}
	// Failures never take recency slots: the residents must survive.
	if _, ok := c.Get("resident"); !ok {
		t.Fatal("failed builds evicted a resident entry")
	}
	if _, ok := c.Get("resident2"); !ok {
		t.Fatal("failed builds evicted a resident entry")
	}
	if _, ok := c.Get("bad"); ok {
		t.Fatal("failed key reported as cached")
	}
	if c.Evictions() != 0 {
		t.Fatalf("Evictions = %d, want 0", c.Evictions())
	}
	// A later successful build caches normally.
	v, err := c.GetOrBuildErr("bad", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("recovery build: %d, %v", v, err)
	}
	if v, ok := c.Get("bad"); !ok || v != 7 {
		t.Fatalf("recovered key not cached: %d, %v", v, ok)
	}
}

func TestGetOrBuildErrConcurrentFailure(t *testing.T) {
	// Every concurrent caller of a failing key gets the error — whether it
	// shared the in-flight build or arrived after the failure was dropped
	// from the map and triggered a rebuild (failures are not cached, so
	// the build count here is 1..workers by design).
	c := New[string, int](2)
	boom := errors.New("boom")
	const workers = 8
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = c.GetOrBuildErr("k", func() (int, error) {
				return 0, boom
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != boom {
			t.Fatalf("worker %d: err = %v, want boom", w, err)
		}
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed key cached")
	}
}

// TestOnEvictCapacityOnly: the observer sees exactly the entries the size
// bound displaces — not replacements, not Deletes — with key and value.
func TestOnEvictCapacityOnly(t *testing.T) {
	c := New[string, int](2)
	var mu sync.Mutex
	evicted := map[string]int{}
	c.OnEvict(func(k string, v int) {
		mu.Lock()
		evicted[k] = v
		mu.Unlock()
	})
	c.Put("a", 1)
	c.Put("a", 9) // replacement: not an eviction
	c.Put("b", 2)
	c.Delete("b") // explicit removal: not an eviction
	c.Put("b", 2)
	c.Put("c", 3) // capacity: evicts "a"
	if len(evicted) != 1 || evicted["a"] != 9 {
		t.Fatalf("evicted = %v, want only a:9", evicted)
	}
	// GetOrBuild completions take recency slots and can evict too.
	c.GetOrBuild("d", func() int { return 4 })
	if len(evicted) != 2 || evicted["b"] != 2 {
		t.Fatalf("evicted = %v, want a:9 and b:2", evicted)
	}
}

// TestOnEvictReentrant: the observer runs outside the cache lock, so it
// may call back into the cache — even re-inserting the evicted key —
// without deadlock.
func TestOnEvictReentrant(t *testing.T) {
	c := New[string, int](1)
	var calls atomic.Int32
	c.OnEvict(func(k string, v int) {
		// First-level eviction only: re-inserting evicts again; don't loop.
		if calls.Add(1) == 1 {
			if _, ok := c.Get(k); ok {
				t.Errorf("evicted key %q still resident inside observer", k)
			}
			c.Put("observer", v)
		}
	})
	c.Put("a", 1)
	c.Put("b", 2) // evicts a -> observer Puts "observer" -> evicts b
	if calls.Load() != 2 {
		t.Fatalf("observer ran %d times, want 2", calls.Load())
	}
	if _, ok := c.Get("observer"); !ok {
		t.Fatal("observer's own Put lost")
	}
}

// TestSetCostBudgetEviction: with a pricing function installed, inserts
// evict from the LRU end until the total cost fits the budget, even with
// the entry-count bound far from exhausted — a handful of expensive
// values cannot pin unbounded memory behind a generous slot count.
func TestSetCostBudgetEviction(t *testing.T) {
	c := New[string, int](64)
	c.SetCost(100, func(k string, v int) int64 { return int64(v) })
	c.Put("a", 40)
	c.Put("b", 40)
	if total, budget := c.Cost(); total != 80 || budget != 100 {
		t.Fatalf("cost = %d/%d, want 80/100", total, budget)
	}
	c.Put("c", 40) // 120 > 100: evict a (LRU)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived budget eviction")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b evicted though evicting a sufficed")
	}
	if total, _ := c.Cost(); total != 80 {
		t.Fatalf("total = %d after eviction, want 80", total)
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
}

// TestSetCostKeepsNewestOverBudgetEntry: one value larger than the whole
// budget still caches — evicting the entry just inserted would make the
// cache useless for every oversized key.
func TestSetCostKeepsNewestOverBudgetEntry(t *testing.T) {
	c := New[string, int](8)
	c.SetCost(10, func(k string, v int) int64 { return int64(v) })
	c.Put("small", 1)
	c.Put("huge", 1000) // over budget alone; evicts small, keeps huge
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("over-budget entry not cached")
	}
	if _, ok := c.Get("small"); ok {
		t.Fatal("small survived while the budget was blown")
	}
	if total, _ := c.Cost(); total != 1000 {
		t.Fatalf("total = %d, want 1000", total)
	}
}

// TestSetCostMixedSizes is the graph-cache regression shape: many cheap
// entries and one expensive one coexist under the same budget, with the
// cheap ones never displaced by count pressure alone.
func TestSetCostMixedSizes(t *testing.T) {
	c := New[string, int](64)
	c.SetCost(1000, func(k string, v int) int64 { return int64(v) })
	c.Put("big", 900)
	for i := 0; i < 20; i++ {
		c.Put(string(rune('a'+i)), 4) // 80 total alongside big: fits
	}
	if _, ok := c.Get("big"); !ok {
		t.Fatal("big evicted though everything fit")
	}
	c.Put("big2", 900) // 900+80+900 > 1000: evicts big and some cheap ones
	if _, ok := c.Get("big"); ok {
		t.Fatal("big survived a second big insert under a 1000 budget")
	}
	if _, ok := c.Get("big2"); !ok {
		t.Fatal("big2 not resident")
	}
	if total, _ := c.Cost(); total > 1000 {
		t.Fatalf("total = %d exceeds budget after evictions", total)
	}
}

// TestSetCostDeleteRefunds: Delete returns an entry's cost to the budget.
func TestSetCostDeleteRefunds(t *testing.T) {
	c := New[string, int](8)
	c.SetCost(100, func(k string, v int) int64 { return int64(v) })
	c.Put("a", 60)
	c.Delete("a")
	if total, _ := c.Cost(); total != 0 {
		t.Fatalf("total = %d after delete, want 0", total)
	}
	c.Put("b", 60)
	c.Put("c", 30)
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b evicted though a's cost was refunded")
	}
}

// TestSetCostDisable: removing the bound stops pricing new entries.
func TestSetCostDisable(t *testing.T) {
	c := New[string, int](8)
	c.SetCost(10, func(k string, v int) int64 { return int64(v) })
	c.Put("a", 5)
	c.SetCost(0, nil)
	c.Put("b", 1000) // no pricing, no budget: both stay
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted with bound removed")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b not cached with bound removed")
	}
}

// TestMoveToFrontFromMiddle covers the recency splice for an entry that is
// neither head nor tail, with cost accounting intact across the move.
func TestMoveToFrontFromMiddle(t *testing.T) {
	c := New[string, int](3)
	c.SetCost(100, func(k string, v int) int64 { return int64(v) })
	c.Put("a", 10)
	c.Put("b", 20)
	c.Put("c", 30)
	if _, ok := c.Get("b"); !ok { // middle of the list
		t.Fatal("b missing")
	}
	if total, _ := c.Cost(); total != 60 {
		t.Fatalf("total = %d after Get, want 60 (Get must not reprice)", total)
	}
	c.Put("d", 10) // count bound evicts LRU = a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived; recency order broken by middle splice")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b evicted despite being freshened")
	}
}

// TestUpdateSkipsAbsentAndUnfinished: Update touches only completed
// entries — an absent key and an in-flight build are left alone and fn is
// never called — and fn declining leaves the entry as it was.
func TestUpdateSkipsAbsentAndUnfinished(t *testing.T) {
	c := New[string, int](4)
	called := false
	bump := func(v int) (int, bool) { called = true; return v + 1, true }
	if c.Update("absent", bump) || called {
		t.Fatal("Update of an absent key ran fn or reported a change")
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("Update created an absent key")
	}

	started, release, done := make(chan struct{}), make(chan struct{}), make(chan int)
	go func() {
		done <- c.GetOrBuild("slow", func() int {
			close(started)
			<-release
			return 7
		})
	}()
	<-started
	if c.Update("slow", bump) || called {
		t.Fatal("Update of an unfinished build ran fn or reported a change")
	}
	close(release)
	if v := <-done; v != 7 {
		t.Fatalf("build returned %d, want 7", v)
	}
	if !c.Update("slow", bump) {
		t.Fatal("Update of the finished build reported no change")
	}
	if v, _ := c.Get("slow"); v != 8 {
		t.Fatalf("slow = %d after Update, want 8", v)
	}

	c.Put("a", 1)
	if c.Update("a", func(v int) (int, bool) { return v * 10, false }) {
		t.Fatal("a declined Update reported a change")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v after a declined Update, want 1", v, ok)
	}
}

// TestUpdateRechargesCost: the updated value is priced afresh and marked
// most recently used, so growing one entry evicts the least recently used
// others — observed as evictions — and never the entry itself.
func TestUpdateRechargesCost(t *testing.T) {
	c := New[string, int](64)
	c.SetCost(100, func(k string, v int) int64 { return int64(v) })
	var evicted []string
	c.OnEvict(func(k string, v int) { evicted = append(evicted, k) })
	c.Put("a", 30)
	c.Put("b", 30)
	c.Put("c", 30)
	if !c.Update("a", func(v int) (int, bool) { return v + 40, true }) {
		t.Fatal("Update of a resident entry reported no change")
	}
	if total, _ := c.Cost(); total != 100 {
		t.Fatalf("total = %d after growing a to 70, want 100 (a + c)", total)
	}
	if v, ok := c.Get("a"); !ok || v != 70 {
		t.Fatalf("a = %d, %v, want 70", v, ok)
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b] (the LRU once a moved to the front)", evicted)
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
}

// TestUpdateConcurrentNoLostChange: concurrent read-modify-writes of one
// key each see the previous one's result, so none is lost — the property
// a Get followed by a Put lacks.
func TestUpdateConcurrentNoLostChange(t *testing.T) {
	c := New[string, int](4)
	c.Put("n", 0)
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				c.Update("n", func(v int) (int, bool) { return v + 1, true })
			}
		}()
	}
	wg.Wait()
	if v, _ := c.Get("n"); v != workers*each {
		t.Fatalf("n = %d after %d increments", v, workers*each)
	}
}
