// Metrics instrumentation for the serving layer: every counter the
// server already keeps (request sources, dedup, spill, sweep planning)
// plus per-protocol simulation-latency histograms, rendered in the
// Prometheus text format on GET /metrics.
//
// Design: state that already lives in an atomic (requests, simulations,
// spill writes, graph-memo counters) is exposed through func-backed
// series read at scrape time — one source of truth, zero new hot-path
// cost. Only facts no existing counter captures (submission source
// split, rejection reasons, sweep-plan resolution, stream followers,
// latency observations) get dedicated instruments, all pre-resolved at
// construction so the hot path never does a label lookup.
package serve

import (
	"rumor/internal/experiment"
	"rumor/internal/metrics"
)

// simBuckets spans the simulation-latency range: 100µs (a warm small
// graph) up to ~100s (paper-scale heavy trees), exponential ×2.
var simBuckets = metrics.ExpBuckets(0.0001, 2, 21)

// serveMetrics bundles the server's instruments.
type serveMetrics struct {
	reg *metrics.Registry

	// Submission outcomes: every normalized submission increments
	// requests_total (func-backed) and exactly one of these, so
	// requests_total == Σ by_source + Σ rejections holds exactly —
	// the conservation law cmd/soak asserts.
	srcRun, srcDedup, srcCache, srcDisk *metrics.Counter
	rejBusy, rejDraining                *metrics.Counter

	// Sweep-plan resolution tallies (fresh plans only, matching the
	// X-Rumord-Sweep-* headers).
	sweepHits, sweepJoined, sweepScheduled *metrics.Counter

	streams        *metrics.Counter
	followers      *metrics.Gauge
	internalErrors *metrics.Counter

	simSeconds *metrics.HistogramVec
	simByProto map[experiment.Proto]*metrics.Histogram
}

// newServeMetrics builds the registry for s and pre-resolves every
// hot-path child series (so they exist from boot — scrapers and the CI
// smoke checks see the full inventory before traffic arrives).
func newServeMetrics(s *Server) *serveMetrics {
	reg := metrics.NewRegistry()
	m := &serveMetrics{reg: reg}

	reg.CounterFunc("rumord_requests_total", "Normalized submissions (runs, sweeps, and sweep points).",
		func() float64 { return float64(s.requests.Load()) })
	bySource := reg.CounterVec("rumord_requests_by_source_total",
		"Submissions by where the result came from (matches X-Rumord-Source).", "source")
	m.srcRun = bySource.With(string(sourceRun))
	m.srcDedup = bySource.With(string(sourceDedup))
	m.srcCache = bySource.With(string(sourceCache))
	m.srcDisk = bySource.With(string(sourceDisk))
	rej := reg.CounterVec("rumord_submit_rejections_total",
		"Submissions rejected at intake.", "reason")
	m.rejBusy = rej.With("busy")
	m.rejDraining = rej.With("draining")

	reg.CounterFunc("rumord_simulations_total", "Jobs actually simulated (dedup and cache hits excluded).",
		func() float64 { return float64(s.simulations.Load()) })
	reg.CounterFunc("rumord_failures_total", "Jobs that ended in error.",
		func() float64 { return float64(s.failures.Load()) })
	reg.CounterFunc("rumord_sweeps_total", "Sweep plans assembled fresh.",
		func() float64 { return float64(s.sweeps.Load()) })
	sweepPoints := reg.CounterVec("rumord_sweep_points_total",
		"Cross-product points by planner resolution (fresh sweep plans only).", "resolution")
	m.sweepHits = sweepPoints.With("hit")
	m.sweepJoined = sweepPoints.With("joined")
	m.sweepScheduled = sweepPoints.With("scheduled")

	reg.GaugeFunc("rumord_jobs_live", "In-flight jobs (queued + running, sweeps included).",
		func() float64 { return float64(s.store.jobsLive()) })
	reg.GaugeFunc("rumord_queue_depth", "Accepted-but-not-started jobs.",
		func() float64 { depth, _ := s.QueueDepth(); return float64(depth) })
	reg.GaugeFunc("rumord_queue_capacity", "Job queue capacity.",
		func() float64 { _, capacity := s.QueueDepth(); return float64(capacity) })
	reg.GaugeFunc("rumord_workers", "Simulation worker pool size.",
		func() float64 { return float64(s.opts.workers()) })
	reg.GaugeFunc("rumord_workers_busy", "Workers currently running a simulation.",
		func() float64 { return float64(s.runningJobs.Load()) })
	reg.GaugeFunc("rumord_cache_entries", "Completed payloads resident in the memory LRU.",
		func() float64 { return float64(s.store.cacheLen()) })
	reg.GaugeFunc("rumord_cache_capacity", "Memory LRU capacity (entries, summed across shards).",
		func() float64 { return float64(s.opts.cacheSize()) })
	reg.GaugeFunc("rumord_shards", "Store shard count.",
		func() float64 { return float64(len(s.store.shards)) })
	reg.GaugeFunc("rumord_draining", "1 once Shutdown has stopped intake.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})

	// Spill tier: zero-valued series without a DataDir, so the scrape
	// shape is identical either way.
	spillCounter := func(name, help string, load func(*spill) int64) {
		reg.CounterFunc(name, help, func() float64 {
			if sp := s.store.spill; sp != nil {
				return float64(load(sp))
			}
			return 0
		})
	}
	spillCounter("rumord_spill_writes_total", "Payloads persisted to the disk tier on eviction.",
		func(sp *spill) int64 { return sp.dir.Writes() })
	spillCounter("rumord_spill_write_bytes_total", "Payload bytes persisted to the disk tier.",
		func(sp *spill) int64 { return sp.writeBytes.Load() })
	spillCounter("rumord_spill_reads_total", "Lookups served from the disk tier.",
		func(sp *spill) int64 { return sp.hits.Load() })
	spillCounter("rumord_spill_read_bytes_total", "Payload bytes replayed from the disk tier.",
		func(sp *spill) int64 { return sp.readBytes.Load() })
	spillCounter("rumord_spill_errors_total", "Failed spill writes/reads (corrupt files count here).",
		func(sp *spill) int64 { return sp.dir.Errors() })
	reg.GaugeFunc("rumord_spill_resident", "Valid entries resident on disk.",
		func() float64 {
			if sp := s.store.spill; sp != nil {
				return float64(sp.dir.Resident())
			}
			return 0
		})

	m.streams = reg.Counter("rumord_streams_total", "GET /v1/jobs/{id}/stream requests served.")
	m.followers = reg.Gauge("rumord_stream_followers", "NDJSON stream connections currently open.")
	m.internalErrors = reg.Counter("rumord_internal_errors_total",
		"Requests that failed with an unexpected internal error (500).")

	m.simSeconds = reg.HistogramVec("rumord_simulation_seconds",
		"Wall-clock duration of completed simulations by protocol.", simBuckets, "protocol")
	m.simByProto = make(map[experiment.Proto]*metrics.Histogram, 5)
	for _, p := range experiment.Protos() {
		m.simByProto[p] = m.simSeconds.With(string(p))
	}

	// Graph substrate: the memo and the configured CSR disk store keep
	// their own atomics, which experiment reports; surface them here.
	reg.CounterFunc("rumor_graph_memo_hits_total", "Deterministic-graph memo lookups served without building.",
		func() float64 { calls, builds, _ := experiment.GraphMemoStats(); return float64(calls - builds) })
	reg.CounterFunc("rumor_graph_memo_misses_total", "Deterministic-graph memo lookups that invoked a build.",
		func() float64 { _, builds, _ := experiment.GraphMemoStats(); return float64(builds) })
	reg.CounterFunc("rumor_graph_memo_evictions_total", "Graphs evicted from the memo LRU.",
		func() float64 { _, _, ev := experiment.GraphMemoStats(); return float64(ev) })
	reg.CounterFunc("rumor_graph_csr_opens_total", "Spilled CSR files reopened mmap-backed.",
		func() float64 { opens, _, _ := experiment.GraphStoreStats(); return float64(opens) })
	reg.CounterFunc("rumor_graph_store_builds_total", "Graph builds invoked on CSR-store misses.",
		func() float64 { _, builds, _ := experiment.GraphStoreStats(); return float64(builds) })
	reg.CounterFunc("rumor_graph_store_spills_total", "Built graphs encoded to the CSR store.",
		func() float64 { _, _, spills := experiment.GraphStoreStats(); return float64(spills) })

	return m
}

// countSource attributes a successful submission to its source series.
func (m *serveMetrics) countSource(src source) {
	switch src {
	case sourceRun:
		m.srcRun.Inc()
	case sourceDedup:
		m.srcDedup.Inc()
	case sourceCache:
		m.srcCache.Inc()
	case sourceDisk:
		m.srcDisk.Inc()
	}
}

// countRejection attributes a rejected submission to its reason series.
// Unknown errors (none exist today) land on the internal-error counter
// so the conservation law still balances.
func (m *serveMetrics) countRejection(err error) {
	switch err {
	case ErrBusy:
		m.rejBusy.Inc()
	case ErrDraining:
		m.rejDraining.Inc()
	default:
		m.internalErrors.Inc()
	}
}

// countInternalError records an unexpected 500.
func (m *serveMetrics) countInternalError() {
	m.internalErrors.Inc()
}

// countPlan records a fresh sweep plan's resolution tallies.
func (m *serveMetrics) countPlan(plan *sweepPlan) {
	if plan == nil {
		return
	}
	m.sweepHits.Add(int64(plan.hits))
	m.sweepJoined.Add(int64(plan.joined))
	m.sweepScheduled.Add(int64(plan.scheduled))
}

// observeSim records one completed simulation's wall-clock seconds under
// its protocol. The five paper protocols are pre-resolved; anything else
// (impossible after spec normalization) resolves lazily.
func (m *serveMetrics) observeSim(p experiment.Proto, seconds float64) {
	h, ok := m.simByProto[p]
	if !ok {
		h = m.simSeconds.With(string(p))
	}
	h.Observe(seconds)
}

// streamOpen counts a stream request and marks its follower present for
// the duration of the returned func.
func (m *serveMetrics) streamOpen() func() {
	m.streams.Inc()
	m.followers.Inc()
	return m.followers.Dec
}
