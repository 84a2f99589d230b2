package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"rumor/internal/experiment"
)

// runTraced produces the per-layer ledger. It runs the workload's
// measured phase twice — tracing off, then on, which gives the tracing
// overhead — and then, whatever the workload, the same fixed set of
// layer measurements: the isolated probes, one engine pass, one graph
// pass and the walk through the in-process serve stack. A per-layer
// number therefore has one definition in every traced run; only the
// counter rows (requests by source, spill traffic, gateway and admission
// counts, process CPU) come from the chosen workload's own window, and
// are zero for the workloads that send no request.
func runTraced(ctx context.Context, decl *declaration, e *env, name string, w workload, d time.Duration, out io.Writer) (*window, map[string]value, error) {
	if err := w.setUp(ctx); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := w.measure(ctx, d, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := w.verify(ctx); err != nil {
		return plain, nil, fmt.Errorf("verification: %w", err)
	}
	tr := newTracer()
	traced, err := w.measure(ctx, d, tr)
	if err != nil {
		return nil, nil, err
	}
	w.tearDown()
	fmt.Fprintf(out, "%s traced window, spans by layer: calls and self time (span minus child spans) of %.2f s\n", name, traced.wall.Seconds())
	for _, lt := range tr.layerTimes() {
		fmt.Fprintf(out, "  %-12s %8d calls %10.3f s\n", lt.Layer, lt.Calls, lt.Self.Seconds())
	}

	l := newLedger(decl.PerLayer)
	l.set("trace.overhead_pct", 100*(1-ratio(traced.opsPerSec(), plain.opsPerSec())))
	windowLedger(l, plain)
	setGOMAXPROCS(e.procs)
	if err := layerProbes(l, tr, e.procs, e.size.probeDiv); err != nil {
		return nil, nil, err
	}
	if err := engineLedger(l, e, tr); err != nil {
		return nil, nil, err
	}
	if err := graphLedger(ctx, l, e, tr); err != nil {
		return nil, nil, err
	}
	if err := walkStack(ctx, l, e, tr, out); err != nil {
		return nil, nil, err
	}

	path := filepath.Join(outDir, "trace-"+name+".json")
	if err := tr.write(path); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "%s spans written to %s\n", name, path)
	m, err := l.metrics()
	return plain, m, err
}

// windowLedger reports the outside view of the workload's own window.
func windowLedger(l *ledger, win *window) {
	c := win.serve
	submissions := 0.0
	for _, v := range c.bySource {
		submissions += v
	}
	for _, src := range []string{"run", "cache", "disk", "dedup"} {
		l.set("serve.source_share."+src, ratio(c.bySource[src], submissions))
	}
	l.set("serve.sim_busy_s", c.simBusy)
	l.set("serve.worker_util", ratio(c.simBusy, c.workers*win.wall.Seconds()))
	l.set("serve.spill_writes", c.spillWrites)
	l.set("serve.spill_write_mib", c.spillWriteBytes/(1<<20))
	l.set("serve.spill_reads", c.spillReads)
	l.set("serve.spill_errors", c.spillErrors)
	l.set("serve.rejected", c.rejected)
	l.set("admission.queue_wait_ms", 1e3*ratio(c.queueWaitSum, c.queueWaitCount))
	l.set("admission.throttled", c.throttled)
	l.set("admission.shed", c.admissionShed)
	l.set("gateway.cpu_ms_per_req", ratio(1e3*c.gatewayCPU, float64(win.ok())))
	l.set("gateway.retries", c.retries)
	l.set("gateway.failovers", c.failovers)
	l.set("gateway.shed", c.gatewayShed)
	most, least := 0, 0
	for _, n := range c.byBackend {
		most = max(most, n)
		if least == 0 || n < least {
			least = n
		}
	}
	l.set("gateway.backend_balance", ratio(float64(most), float64(least)))
	l.set("client.loop_overhead_us", median(win.overhead))
	l.set("client.latency_p99_ms", percentile(win.latencies, 99))
	l.set("client.latency_max_ms", percentile(win.latencies, 100))
	l.set("proc.build_binaries_s", c.build.Seconds())
	l.set("proc.rumord_cpu_s", c.backendCPU)
	l.set("proc.rumorgw_cpu_s", c.gatewayCPU)
	l.set("proc.peak_rss_mib", c.peakRSSMiB)
}

// engineLedger runs the engine-sweep table three ways — a pass on every
// processor, the same pass on one, and single-trial passes — and reports
// what each protocol costs per message, its share of the pass, what a
// 16-lane bundle gains over one lane, and what the second processor buys.
func engineLedger(l *ledger, e *env, tr *tracer) error {
	points := rowPoints(e.size.engine)
	graphs, err := buildTableGraphs(rowGraphs(e.size.engine))
	if err != nil {
		return err
	}
	seed := passSeed(e.seed, 0)
	if _, err := enginePass(points, graphs, 1, seed, nil); err != nil { // lazy per-graph structures
		return err
	}
	t0 := time.Now()
	wide, err := enginePass(points, graphs, engineTrials, seed, tr)
	if err != nil {
		return err
	}
	wideWall := time.Since(t0)
	setGOMAXPROCS(1)
	t0 = time.Now()
	_, err = enginePass(points, graphs, engineTrials, seed, nil)
	serialWall := time.Since(t0)
	setGOMAXPROCS(e.procs)
	if err != nil {
		return err
	}
	l.set("par.speedup_p2", ratio(serialWall.Seconds(), wideWall.Seconds()))

	// One trial at a time, engineTrials/4 passes' worth, so the per-trial
	// figure averages over as many trials as a quarter of a wide point.
	single := map[experiment.Proto]time.Duration{}
	singles := max(engineTrials/4, 1)
	for r := range singles {
		runs, err := enginePass(points, graphs, 1, passSeed(e.seed, 1000+r), nil)
		if err != nil {
			return err
		}
		for _, run := range runs {
			single[run.pt.proto] += run.wall
		}
	}

	type protoSum struct {
		wall     time.Duration
		messages int64
	}
	by := map[experiment.Proto]*protoSum{}
	var total, starPush, meetx time.Duration
	var starPushRounds, agentSteps int64
	for _, run := range wide {
		s := by[run.pt.proto]
		if s == nil {
			s = &protoSum{}
			by[run.pt.proto] = s
		}
		s.wall += run.wall
		total += run.wall
		rounds := int64(0)
		for _, res := range run.results {
			s.messages += res.Messages
			rounds += int64(res.Rounds)
		}
		switch {
		case run.pt.proto == experiment.ProtoPush && strings.HasPrefix(run.pt.graph, "star:"):
			starPush += run.wall
			starPushRounds += rounds
		case run.pt.proto == experiment.ProtoMeetX:
			// Agent density 1: as many agents as vertices, each stepping
			// once a round.
			meetx += run.wall
			agentSteps += rounds * int64(run.n)
		}
	}
	for _, p := range experiment.Protos() {
		s := by[p]
		l.set("core."+string(p)+".ns_per_message", ratio(float64(s.wall), float64(s.messages)))
		l.set("core."+string(p)+".share", ratio(float64(s.wall), float64(total)))
		perTrialSingle := float64(single[p]) / float64(singles)
		perTrialWide := float64(s.wall) / engineTrials
		l.set("core."+string(p)+".lane_gain", ratio(perTrialSingle, perTrialWide))
	}
	l.set("core.push.sparse_ns_per_round", ratio(float64(starPush), float64(starPushRounds)))
	l.set("agents.ns_per_agent_step", ratio(float64(meetx), float64(agentSteps)))
	return nil
}

// graphLedger takes the graph-build table through one probed pass.
func graphLedger(ctx context.Context, l *ledger, e *env, tr *tracer) error {
	dir := filepath.Join(e.runDir, "graphs-ledger")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w := newGraphBuild(e)
	cycles, err := graphPass(ctx, w.specs, dir, w.samplerSeed(0), w.sweepSeed(), tr, true)
	if err != nil {
		return err
	}
	var cold, warm, heap, mapped, encode time.Duration
	var encoded int64
	var opens, peaks []float64
	for _, c := range cycles {
		l.set("graph."+c.family+".build_ns_per_edge", ratio(float64(c.build), float64(c.edges)))
		cold += c.write
		warm += c.read
		heap += c.sweepHeap
		mapped += c.sweepMap
		encode += c.encode
		encoded += c.csrBytes
		opens = append(opens, us(c.open))
		peaks = append(peaks, ratio(float64(c.heapPeak), float64(c.csrBytes)))
	}
	l.set("graph.encode_mib_per_s", ratio(float64(encoded)/(1<<20), encode.Seconds()))
	l.set("graph.open_us", median(opens))
	l.set("graph.store_cold_s", cold.Seconds())
	l.set("graph.store_warm_ms", 1e3*warm.Seconds())
	l.set("graph.build_peak_over_csr", slices.Max(peaks))
	l.set("graph.sweep_heap_over_mmap", ratio(heap.Seconds(), mapped.Seconds()))
	return nil
}
