package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"rumor/internal/admission"
	"rumor/internal/bitset"
	"rumor/internal/experiment"
	"rumor/internal/graph"
	"rumor/internal/lru"
	"rumor/internal/metrics"
	"rumor/internal/par"
	"rumor/internal/serve"
	"rumor/internal/xrand"
)

// sink keeps the compiler from deleting a probe's loop body.
var sink uint64

// probeReps is how often each probe loop repeats; the median is reported.
const probeReps = 5

// perOp times fn(n) probeReps times and returns the median time of one of
// its n iterations, in nanoseconds. The whole probe is one span.
func perOp(tr *tracer, name, layer string, n int, fn func(n int)) float64 {
	sp := tr.begin(name, layer, -1, -1)
	defer tr.end(sp)
	fn(min(n, 1000)) // warm the code and the data
	samples := make([]float64, probeReps)
	for r := range samples {
		t0 := time.Now()
		fn(n)
		samples[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(samples)
}

// layerProbes times each layer's public hot-path calls in isolation: the
// unit costs the end-to-end numbers are built from. Every loop runs div
// times shorter (1 for a real run).
func layerProbes(l *ledger, tr *tracer, procs, div int) error {
	scale := func(n int) int { return max(n/div, 10) }

	// xrand: one keyed draw per vertex-round is the engine's unit of
	// randomness; Geometric64 is the samplers' skip length.
	l.set("xrand.stream_draw_ns", perOp(tr, "NewStream+IntN", "xrand", scale(5_000_000), func(n int) {
		for i := range n {
			s := xrand.NewStream(7, uint64(i), 3)
			sink += uint64(s.IntN(12))
		}
	}))
	l.set("xrand.geometric64_ns", perOp(tr, "Geometric64", "xrand", scale(2_000_000), func(n int) {
		s := xrand.NewStream(7, 1, 1)
		for range n {
			sink += uint64(s.Geometric64(1e-5))
		}
	}))

	// bitset: merging a sparse frontier (one new bit in four words) into
	// a half-informed set, per 64-bit word scanned.
	const bits = 1 << 20
	src, base := bitset.New(bits), bitset.New(bits)
	for i := 0; i < bits; i++ {
		switch r := mix(1, uint64(i)) % 256; {
		case r == 0:
			src.Set(i)
		case r <= 128:
			base.Set(i)
		}
	}
	dst := bitset.New(bits)
	reps := scale(200)
	perCommit := perOp(tr, "CommitNew", "bitset", reps, func(n int) {
		for range n {
			dst.CopyFrom(base)
			dst.CommitNew(src, func(i int) { sink += uint64(i) })
		}
	})
	perCopy := perOp(nil, "", "", reps, func(n int) {
		for range n {
			dst.CopyFrom(base)
		}
	})
	l.set("bitset.commit_new_ns_per_word", (perCommit-perCopy)/(bits/64))

	// par: the fixed cost of fanning one round out to two shards.
	l.set("par.dispatch_us", perOp(tr, "Do", "par", scale(200_000), func(n int) {
		for range n {
			par.Do(procs, 1, func(shard, lo, hi int) {})
		}
	})/1e3)

	// experiment: what every request pays before any simulation.
	spec := experiment.DefaultRunSpec()
	spec.Graph, spec.Protocol, spec.Trials, spec.GraphSeed = " RandReg:4096, 12", experiment.ProtoVisitX, 16, 1
	norm, err := spec.Normalize()
	if err != nil {
		return err
	}
	l.set("experiment.normalize_us", perOp(tr, "Normalize+CanonicalJSON", "experiment", scale(200_000), func(n int) {
		for range n {
			s, _ := spec.Normalize()
			sink += uint64(len(s.CanonicalJSON()))
		}
	})/1e3)
	if _, _, err := norm.Build(); err != nil {
		return err
	}
	l.set("experiment.build_memo_hit_us", perOp(tr, "Build (memo hit)", "experiment", scale(500_000), func(n int) {
		for range n {
			g, _, _ := norm.Build()
			sink += uint64(g.N())
		}
	})/1e3)
	sweep := experiment.Sweep{
		Defaults:  norm,
		Graphs:    []string{"hypercube:8", "star:256"},
		Protocols: []experiment.Proto{experiment.ProtoPush, experiment.ProtoVisitX},
		Seeds:     []uint64{1, 2},
	}
	l.set("experiment.sweep_expand_us_per_point", perOp(tr, "Sweep.Expand", "experiment", scale(50_000), func(n int) {
		for range n {
			pts, _ := sweep.Expand()
			sink += uint64(len(pts))
		}
	})/8/1e3)

	l.set("graph.parse_spec_us", perOp(tr, "ParseSpec+Canonical", "graph", scale(500_000), func(n int) {
		for range n {
			p, _ := graph.ParseSpec(" RandReg:4096, 12")
			sink += uint64(len(p.Canonical()))
		}
	})/1e3)

	l.set("serve.jobid_us", perOp(tr, "JobID", "serve", scale(500_000), func(n int) {
		for range n {
			sink += uint64(len(serve.JobID(norm)))
		}
	})/1e3)

	// lru: keys shaped like job IDs. A hit is the cached-reply lookup; a
	// put into a full cache with an eviction hook is what every fresh
	// result costs the store.
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", mix(2, uint64(i)))
	}
	hits := lru.New[string, int](len(keys))
	for i, k := range keys {
		hits.Put(k, i)
	}
	l.set("lru.get_hit_ns", perOp(tr, "Get (hit)", "lru", scale(2_000_000), func(n int) {
		for i := range n {
			v, _ := hits.Get(keys[i%len(keys)])
			sink += uint64(v)
		}
	}))
	evicting := lru.New[string, int](256)
	evicting.OnEvict(func(string, int) { sink++ })
	l.set("lru.put_evict_ns", perOp(tr, "Put (evicting)", "lru", scale(2_000_000), func(n int) {
		for i := range n {
			evicting.Put(keys[i%len(keys)], i)
		}
	}))

	// admission: the gateway's per-request gate, alone and with every
	// core acquiring at once.
	ctrl := admission.NewController(admission.Options{})
	ctx := context.Background()
	gate := func(client string, n int) {
		for range n {
			ctrl.Acquire(ctx, client, "127.0.0.1:1").Release()
		}
	}
	l.set("admission.acquire_release_ns", perOp(tr, "Acquire+Release", "admission", scale(1_000_000), func(n int) {
		gate("client-0", n)
	}))
	l.set("admission.acquire_release_contended_ns", perOp(tr, "Acquire+Release contended", "admission", scale(500_000), func(n int) {
		var wg sync.WaitGroup
		for c := range procs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gate(fmt.Sprintf("client-%d", c), n)
			}()
		}
		wg.Wait()
	}))

	// metrics: the instruments on the request path, and one scrape of a
	// registry about the size of rumord's.
	reg := metrics.NewRegistry()
	counter := reg.Counter("probe_requests_total", "Probe counter.")
	hist := reg.Histogram("probe_seconds", "Probe histogram.", metrics.ExpBuckets(0.0001, 2, 16))
	byRoute := reg.HistogramVec("probe_route_seconds", "Probe labeled histogram.", metrics.ExpBuckets(0.0001, 2, 16), "route")
	for _, route := range []string{"run", "sweep", "job", "stream", "healthz"} {
		byRoute.With(route).Observe(0.001)
	}
	for i := range 40 {
		reg.CounterFunc(fmt.Sprintf("probe_series_%d_total", i), "Probe series.", func() float64 { return float64(i) })
	}
	l.set("metrics.counter_inc_ns", perOp(tr, "Counter.Inc", "metrics", scale(5_000_000), func(n int) {
		for range n {
			counter.Inc()
		}
	}))
	l.set("metrics.histogram_observe_ns", perOp(tr, "Histogram.Observe", "metrics", scale(5_000_000), func(n int) {
		for i := range n {
			hist.Observe(float64(i%1000) * 1e-5)
		}
	}))
	l.set("metrics.write_text_us", perOp(tr, "Registry.WriteText", "metrics", scale(5_000), func(n int) {
		for range n {
			if err := reg.WriteText(io.Discard); err != nil {
				panic(err) // io.Discard does not fail
			}
		}
	})/1e3)
	return nil
}
