package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rumor/internal/graph"
	"rumor/internal/lru"
)

// isolateGraphs gives the test its own world: an empty graph memo and no
// graph store, with the package's own restored on cleanup. The memo and
// the store are package-level and outlive a test, so without this a
// second run in one process (-count=2) finds the first run's graphs
// resident and never reaches the builder or the spill path under test.
func isolateGraphs(t *testing.T) {
	t.Helper()
	prevCache, prevStore := graphCache, graphStore.Load()
	graphCache = newGraphCache()
	graphStore.Store(nil)
	t.Cleanup(func() {
		graphCache = prevCache
		graphStore.Store(prevStore)
	})
}

// TestGraphCacheByteCostMixedSizes is the regression for the old
// entry-count-only bound: one paper-scale graph among many tiny ones must
// be displaced by byte pressure long before the slot count fills, and
// mmap-backed graphs must be priced as nearly free.
func TestGraphCacheByteCostMixedSizes(t *testing.T) {
	c := lru.New[string, *graph.Graph](graphCacheCap)
	// A small budget so the test stays fast: room for the tiny graphs or
	// the big one, not both.
	big := graph.Complete(600) // ~1.4 MB CSR
	budget := big.MemoryCost() + 4*graph.Path(8).MemoryCost()
	c.SetCost(budget, func(_ string, g *graph.Graph) int64 { return g.MemoryCost() })

	c.Put("big", big)
	for i := 0; i < 16; i++ {
		c.Put(fmt.Sprintf("small/%d", i), graph.Path(8))
	}
	if _, ok := c.Get("big"); ok {
		t.Fatal("big graph survived byte pressure from small inserts (entry-count-only eviction)")
	}
	if c.Len() != 16 {
		// Evicting the big graph must have been enough: all 16 tiny
		// graphs fit the budget together.
		t.Fatalf("len = %d, want all 16 small graphs resident", c.Len())
	}

	// An mmap-backed copy of the same big graph costs ~a page, so it
	// coexists with the small working set under the same budget.
	dir := t.TempDir()
	path := filepath.Join(dir, "big.csr")
	if err := graph.WriteCSRFile(big, path); err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.MmapBacked() {
		t.Skip("no mmap on this platform")
	}
	c.Put("big-mapped", mapped)
	for i := 0; i < 16; i++ {
		c.Put(fmt.Sprintf("small2/%d", i), graph.Path(8))
	}
	if _, ok := c.Get("big-mapped"); !ok {
		t.Fatal("mmap-backed graph evicted despite costing almost nothing")
	}
}

// TestSpilledGraphReplaysByteIdentical is the out-of-core correctness
// seam: a fixed-seed run on a store-spilled, mmap-reopened graph must be
// result-identical to the same run on the heap-built graph — and must
// stay identical when the file is reopened again, the restart path.
func TestSpilledGraphReplaysByteIdentical(t *testing.T) {
	dir := t.TempDir()
	defer func() {
		if err := ConfigureGraphStorage("", 0); err != nil {
			t.Fatal(err)
		}
	}()

	spec := DefaultRunSpec()
	spec.Graph = "heavytree:10"
	spec.Protocol = ProtoVisitX
	spec.Trials = 4
	spec.Seed = 7
	spec, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: heap-built graph, no store.
	if err := ConfigureGraphStorage("", 0); err != nil {
		t.Fatal(err)
	}
	graphCache.Delete("heavytree:10")
	want, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Spill everything (threshold 1 byte), evicting the cached instance so
	// the store path actually runs, and compare results.
	if err := ConfigureGraphStorage(filepath.Join(dir, "graphs"), 1); err != nil {
		t.Fatal(err)
	}
	graphCache.Delete("heavytree:10")
	got, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("results differ between heap-built and spilled graph")
	}
	g, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.MmapBacked() {
		t.Skip("no mmap on this platform")
	}

	// "Restart": drop the cached instance so the graph is reopened from
	// the existing file (the builder must not run), and replay again.
	graphCache.Delete("heavytree:10")
	again, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, again) {
		t.Fatal("results differ after reopening the spilled graph")
	}
}

// TestSpilledRandomGraphReplaysByteIdentical extends the out-of-core seam
// to seeded random families: the realization spills under its
// graph.SeededKey (spec + sampler seed + sampler version), reopens
// mmap-backed, and a fixed-seed sweep replays result-identically — the
// property that makes caching a *random* graph sound at all.
func TestSpilledRandomGraphReplaysByteIdentical(t *testing.T) {
	isolateGraphs(t)
	dir := t.TempDir()

	spec := DefaultRunSpec()
	spec.Graph = "randreg:96,4"
	spec.Protocol = ProtoPush
	spec.Trials = 4
	spec.Seed = 11
	spec, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	p, err := graph.ParseSpec(spec.Graph)
	if err != nil {
		t.Fatal(err)
	}
	samplerSeed := graph.SamplerSeed(spec.GraphSeed)
	key := graph.SeededKey(p.Canonical(), samplerSeed)

	// Reference: heap-built realization, no store.
	want, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Spill (threshold 1 byte) and compare.
	if err := ConfigureGraphStorage(filepath.Join(dir, "graphs"), 1); err != nil {
		t.Fatal(err)
	}
	graphCache.Delete(key)
	got, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("results differ between heap-built and spilled random realization")
	}
	g, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.MmapBacked() {
		t.Skip("no mmap on this platform")
	}

	// "Restart": evict, reopen from the spill file (the sampler must not
	// rerun — the file is keyed by seed), and replay again.
	graphCache.Delete(key)
	again, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, again) {
		t.Fatal("results differ after reopening the spilled random realization")
	}

	// A different experiment seed derives a different sampler seed and so a
	// different spill file: both realizations coexist in the store.
	spec2 := spec
	spec2.Seed = 12
	spec2.GraphSeed = 0
	spec2, err = spec2.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	samplerSeed2 := graph.SamplerSeed(spec2.GraphSeed)
	if samplerSeed2 == samplerSeed {
		t.Fatal("distinct graph seeds derived one sampler seed")
	}
	if _, err := spec2.Run(nil); err != nil {
		t.Fatal(err)
	}
	st := graphStore.Load()
	if st == nil {
		t.Fatal("store not configured")
	}
	pathA := st.Path(key)
	pathB := st.Path(graph.SeededKey(p.Canonical(), samplerSeed2))
	if pathA == pathB {
		t.Fatal("distinct sampler seeds mapped to one spill file")
	}
	for _, f := range []string{pathA, pathB} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("missing spill file: %v", err)
		}
	}
}

// giantSpecs sizes TestOutOfCoreGiant, e.g.
//
//	go test -run TestOutOfCoreGiant ./internal/experiment -args -giant-specs 'star:100000000;gnp:10000000,2e-7'
var giantSpecs = flag.String("giant-specs", "", "semicolon-separated graph specs for TestOutOfCoreGiant (empty skips it)")

// TestOutOfCoreGiant is the out-of-core contract of the TestSpilled*
// tests at sizes where it binds (CI runs it under GOMEMLIMIT): per spec,
// the streaming build's peak heap stays within 1.1x of the final CSR —
// the two-pass builder allocates the CSR arrays and O(1) scratch, and
// the random samplers' auxiliary state is file-backed — the graph spills
// (under graph.SeededKey for random families) and reopens mmap-backed,
// and a fixed-seed truncated push sweep is identical on both copies.
func TestOutOfCoreGiant(t *testing.T) {
	if *giantSpecs == "" {
		t.Skip("no -giant-specs")
	}
	// One reproducible realization per random spec, not a distribution.
	const samplerSeed = 424242
	// Push on a star needs Θ(n log n) rounds; 3 rounds of 2 trials run the
	// full draw/commit machinery and truncate deterministically, with
	// per-lane state O(informed) so the sweep is tiny next to the graph.
	sweep := RunSpec{Protocol: ProtoPush, Trials: 2, MaxRounds: 3, Seed: 12345}
	store, err := graph.NewStore(t.TempDir(), 1) // 1-byte threshold: every size spills
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range strings.Split(*giantSpecs, ";") {
		p, err := graph.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		baseline := ms.HeapAlloc
		peak := baseline
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			// 10ms resolution is ample: the build's heap profile is two
			// long plateaus (offsets, then offsets+neighbors), not spikes.
			var ms runtime.MemStats
			for {
				runtime.ReadMemStats(&ms)
				peak = max(peak, ms.HeapAlloc)
				select {
				case <-stop:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
		}()
		g, err := p.BuildSeeded(samplerSeed)
		close(stop)
		<-done
		if err != nil {
			t.Fatalf("%s: build: %v", spec, err)
		}
		if ratio := float64(peak-baseline) / float64(g.CSRBytes()); ratio > 1.1 {
			t.Fatalf("%s: build peak heap %d MiB is %.3fx the %d MiB CSR (bound 1.1x): streaming path regressed",
				spec, (peak-baseline)>>20, ratio, g.CSRBytes()>>20)
		}
		want, err := sweep.RunOn(g, 0, nil)
		if err != nil {
			t.Fatalf("%s: heap sweep: %v", spec, err)
		}

		key := "giant-" + p.Canonical()
		if p.Random() {
			key = graph.SeededKey(p.Canonical(), samplerSeed)
		}
		gm, err := store.GetOrBuild(key, func() (*graph.Graph, error) { return g, nil })
		if err != nil {
			t.Fatalf("%s: spill: %v", spec, err)
		}
		if !gm.MmapBacked() {
			t.Fatalf("%s: reopened graph is not mmap-backed", spec)
		}
		g = nil
		runtime.GC() // release the heap CSR before sweeping the mapped copy
		got, err := sweep.RunOn(gm, 0, nil)
		if err != nil {
			t.Fatalf("%s: mmap sweep: %v", spec, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: mmap-backed sweep diverges from the in-memory sweep", spec)
		}
	}
}

// TestConfigureGraphStorageErrors: an unusable directory is reported, and
// an empty dir disables the store.
func TestConfigureGraphStorageErrors(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := graph.WriteCSRFile(graph.Path(3), f); err != nil {
		t.Fatal(err)
	}
	if err := ConfigureGraphStorage(filepath.Join(f, "graphs"), 1); err == nil {
		t.Fatal("store configured under a regular file")
	}
	if err := ConfigureGraphStorage("", 0); err != nil {
		t.Fatal(err)
	}
	if graphStore.Load() != nil {
		t.Fatal("store still active after disable")
	}
}
