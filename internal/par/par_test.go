package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000, 4097} {
		var mu sync.Mutex
		seen := make([]int, n)
		Do(n, 8, func(_, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestDoShardsContiguousOrdered(t *testing.T) {
	n := 1000
	shards := Shards(n, 10)
	type span struct{ lo, hi int }
	got := make([]span, shards)
	Do(n, 10, func(s, lo, hi int) {
		got[s] = span{lo, hi}
	})
	prev := 0
	for s, sp := range got {
		if sp.lo != prev {
			t.Fatalf("shard %d starts at %d, want %d", s, sp.lo, prev)
		}
		if sp.hi <= sp.lo {
			t.Fatalf("shard %d empty: [%d,%d)", s, sp.lo, sp.hi)
		}
		prev = sp.hi
	}
	if prev != n {
		t.Fatalf("shards end at %d, want %d", prev, n)
	}
}

func TestShardsRespectsGrain(t *testing.T) {
	if s := Shards(100, 1000); s != 1 {
		t.Errorf("Shards(100, 1000) = %d, want 1 (below grain)", s)
	}
	if s := Shards(0, 10); s != 0 {
		t.Errorf("Shards(0, 10) = %d, want 0", s)
	}
	if s := Shards(10, 0); s < 1 {
		t.Errorf("Shards(10, 0) = %d, want >= 1", s)
	}
	defer func() { Refresh() }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	Refresh()
	if s := Shards(1<<20, 1); s != 8 {
		t.Errorf("Shards(1M, 1) = %d at GOMAXPROCS=8, want 8", s)
	}
}

// TestDoResultsIndependentOfGOMAXPROCS: a sharded sum merged in shard
// order must not depend on the processor count.
func TestDoResultsIndependentOfGOMAXPROCS(t *testing.T) {
	defer func() { Refresh() }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	n := 10000
	run := func() []int {
		shards := Shards(n, 100)
		bufs := make([][]int, shards)
		Do(n, 100, func(s, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i%7 == 0 {
					bufs[s] = append(bufs[s], i)
				}
			}
		})
		var out []int
		for _, b := range bufs {
			out = append(out, b...)
		}
		return out
	}
	runtime.GOMAXPROCS(1)
	Refresh()
	a := run()
	runtime.GOMAXPROCS(4)
	Refresh()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("merged output differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestDoConcurrentCallers: concurrent Do calls (as RunMany issues) must not
// deadlock or cross shards between callers.
func TestDoConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var total atomic.Int64
			Do(5000, 50, func(_, lo, hi int) {
				var sum int64
				for i := lo; i < hi; i++ {
					sum += int64(i)
				}
				total.Add(sum)
			})
			want := int64(5000) * 4999 / 2
			if total.Load() != want {
				t.Errorf("sum %d, want %d", total.Load(), want)
			}
		}()
	}
	wg.Wait()
}

// TestDoNZeroAllocs pins the dispatch path allocation-free once a call
// record is in circulation: no closure per shard, no heap WaitGroup.
func TestDoNZeroAllocs(t *testing.T) {
	var sum atomic.Int64
	fn := func(_, lo, hi int) { sum.Add(int64(hi - lo)) }
	for _, shards := range []int{1, 2, 8} {
		if a := testing.AllocsPerRun(200, func() { DoN(shards, 1000, fn) }); a != 0 {
			t.Errorf("DoN(%d shards) allocates %v per call, want 0", shards, a)
		}
	}
}

// BenchmarkDoN prices one call at 1, 2 and 8 shards of no work; run it
// with -cpu 1,2 to see what a dispatch costs with and without a second
// processor to take it. It loops on b.N because under go 1.24 a b.Loop
// benchmark measures before the first -cpu value is applied.
func BenchmarkDoN(b *testing.B) {
	nop := func(_, _, _ int) {}
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				DoN(shards, 1<<16, nop)
			}
		})
	}
}
