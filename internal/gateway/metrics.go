// Metrics instrumentation for the gateway: the counters the gateway
// already keeps (requests, held replies, retries, failovers, shed, stream resumes)
// surface as func-backed series — one source of truth, read at scrape
// time — plus per-backend attempt/failure/ejection/readmission series
// and per-route latency histograms, rendered on GET /metrics.
package gateway

import (
	"bytes"
	"net/http"
	"sync"
	"time"

	"rumor/internal/admission"
	"rumor/internal/metrics"
)

// reqBuckets spans gateway request latency: 1ms (a warm cache replay)
// up to ~17min (a paper-scale simulation waited on synchronously).
var reqBuckets = metrics.ExpBuckets(0.001, 2, 21)

// gwRoutes are the label values of rumorgw_request_seconds, one per
// proxied endpoint.
var gwRoutes = []string{"run", "sweep", "job", "stream"}

// waitBuckets spans fair-queue waits: 1ms up to ~2min.
var waitBuckets = metrics.ExpBuckets(0.001, 2, 18)

// gwMetrics bundles the gateway's instruments.
type gwMetrics struct {
	reg       *metrics.Registry
	byRoute   map[string]*metrics.Histogram
	queueWait map[string]*metrics.Histogram // per admission class
	adm       *admission.Controller

	// render serializes expositions; admSnap holds the one admission.Stats
	// snapshot the rendering exposition's rumorgw_admission_* series all
	// read, so the conservation law (submitted == accepted + throttled +
	// shed + canceled + queued) holds exactly on every exposition, however
	// long it takes to render. cmd/soak asserts it per scrape.
	render  sync.Mutex
	admSnap admission.Stats
}

// scrapeHandler renders GET /metrics: one admission snapshot taken at the
// start of the exposition, then the registry, under the render lock. The
// text is written to the client after the lock is released.
func (m *gwMetrics) scrapeHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b bytes.Buffer
		m.render.Lock()
		m.admSnap = m.adm.Stats()
		m.reg.WriteText(&b)
		m.render.Unlock()
		w.Header().Set("Content-Type", metrics.ContentType)
		w.Write(b.Bytes())
	})
}

// newGWMetrics builds the registry for g, pre-resolving every child
// series so the full inventory exists from boot.
func newGWMetrics(g *Gateway) *gwMetrics {
	reg := metrics.NewRegistry()
	m := &gwMetrics{reg: reg}

	reg.CounterFunc("rumorgw_requests_total", "Proxied requests accepted for routing.",
		func() float64 { return float64(g.requests.Load()) })
	reg.CounterFunc("rumorgw_held_replies_total", "Requests answered from a held reply, with no backend hop: waited submissions, polls of done jobs and streams of finished ones.",
		func() float64 { return float64(g.held.Load()) })
	reg.GaugeFunc("rumorgw_held_bytes", "Bytes charged to the job-ID memory (remembered requests and held submission, poll and stream replies).",
		func() float64 { total, _ := g.specs.Cost(); return float64(total) })
	reg.CounterFunc("rumorgw_retries_total", "Extra proxy attempts after a failed one.",
		func() float64 { return float64(g.retries.Load()) })
	reg.CounterFunc("rumorgw_failovers_total", "Retries that moved to a different backend.",
		func() float64 { return float64(g.failovers.Load()) })
	reg.CounterFunc("rumorgw_shed_total", "Load-shed 503s for keys with no healthy backend.",
		func() float64 { return float64(g.shed.Load()) })
	reg.CounterFunc("rumorgw_exhausted_total", "502s after every attempt failed.",
		func() float64 { return float64(g.exhausted.Load()) })
	reg.CounterFunc("rumorgw_stream_resumes_total", "Streams continued after a mid-stream failure.",
		func() float64 { return float64(g.streamResumes.Load()) })
	reg.CounterFunc("rumorgw_stream_reruns_total", "Stream resumes that re-created the job first.",
		func() float64 { return float64(g.streamReruns.Load()) })

	reg.GaugeFunc("rumorgw_ring_backends", "Backends configured on the ring.",
		func() float64 { return float64(len(g.backends)) })
	reg.GaugeFunc("rumorgw_healthy_backends", "Backends currently admitted by the health checker.",
		func() float64 {
			n := 0
			for _, b := range g.backends {
				if b.healthy.Load() {
					n++
				}
			}
			return float64(n)
		})

	beReqs := reg.CounterVec("rumorgw_backend_requests_total",
		"Buffered proxy attempts sent to each backend (streams and probes excluded).", "backend")
	beFails := reg.CounterVec("rumorgw_backend_failures_total",
		"Buffered proxy attempts that failed per backend (errors and 5xx).", "backend")
	beEject := reg.CounterVec("rumorgw_backend_ejections_total",
		"Times each backend was ejected from rotation.", "backend")
	beReadmit := reg.CounterVec("rumorgw_backend_readmissions_total",
		"Times each ejected backend was readmitted.", "backend")
	beChecks := reg.CounterVec("rumorgw_backend_checks_total",
		"Active health probes per backend.", "backend")
	beHealthy := reg.GaugeVec("rumorgw_backend_healthy",
		"1 while the backend is admitted by the health checker.", "backend")
	beHeadroom := reg.GaugeVec("rumorgw_backend_headroom",
		"Last queue headroom the backend reported on /v1/readyz (-1 until known).", "backend")
	for _, b := range g.backends {
		b := b
		beReqs.Func(func() float64 { return float64(b.proxyReqs.Load()) }, b.addr)
		beFails.Func(func() float64 { return float64(b.proxyFails.Load()) }, b.addr)
		beEject.Func(func() float64 { return float64(b.ejections.Load()) }, b.addr)
		beReadmit.Func(func() float64 { return float64(b.readmissions.Load()) }, b.addr)
		beChecks.Func(func() float64 { return float64(b.checks.Load()) }, b.addr)
		beHealthy.Func(func() float64 {
			if b.healthy.Load() {
				return 1
			}
			return 0
		}, b.addr)
		beHeadroom.Func(func() float64 { return float64(b.headroom.Load()) }, b.addr)
	}

	// Admission series: every class pre-registered (scrapes see zeros, not
	// absent series), every value read off the exposition's one snapshot
	// (see scrapeHandler).
	m.adm = g.adm
	snap := func() *admission.Stats { return &m.admSnap }
	reg.CounterFunc("rumorgw_admission_submitted_total",
		"Submissions that entered admission (accepted + throttled + shed + canceled + queued).",
		func() float64 { return float64(snap().Submitted) })
	reg.CounterFunc("rumorgw_admission_canceled_total",
		"Submissions whose client gave up while held in the fair queue.",
		func() float64 { return float64(snap().Canceled) })
	reg.GaugeFunc("rumorgw_admission_queue_occupancy",
		"Submissions currently held in the fair queue.",
		func() float64 { return float64(snap().QueueLen) })
	reg.GaugeFunc("rumorgw_admission_inflight",
		"Submissions currently dispatched to backends.",
		func() float64 { return float64(snap().InFlight) })
	reg.GaugeFunc("rumorgw_admission_clients",
		"Distinct client identities currently tracked.",
		func() float64 { return float64(snap().Clients) })
	accepted := reg.CounterVec("rumorgw_admission_accepted_total",
		"Submissions dispatched to backends, by client class.", "class")
	throttled := reg.CounterVec("rumorgw_admission_throttled_total",
		"Submissions bounced off their client's own quota (429), by client class.", "class")
	shed := reg.CounterVec("rumorgw_admission_shed_total",
		"Submissions shed at gateway-wide limits (503), by client class.", "class")
	queuedC := reg.CounterVec("rumorgw_admission_queued_total",
		"Submissions that waited in the fair queue at least once, by client class.", "class")
	waits := reg.HistogramVec("rumorgw_admission_queue_wait_seconds",
		"Fair-queue wait of admitted submissions, by client class.", waitBuckets, "class")
	m.queueWait = make(map[string]*metrics.Histogram)
	for _, class := range g.adm.Classes() {
		class := class
		accepted.Func(func() float64 { return float64(snap().ByClass[class].Accepted) }, class)
		throttled.Func(func() float64 { return float64(snap().ByClass[class].Throttled) }, class)
		shed.Func(func() float64 { return float64(snap().ByClass[class].Shed) }, class)
		queuedC.Func(func() float64 { return float64(snap().ByClass[class].Queued) }, class)
		m.queueWait[class] = waits.With(class)
	}

	seconds := reg.HistogramVec("rumorgw_request_seconds",
		"Wall-clock duration of proxied requests by route.", reqBuckets, "route")
	m.byRoute = make(map[string]*metrics.Histogram, len(gwRoutes))
	for _, route := range gwRoutes {
		m.byRoute[route] = seconds.With(route)
	}
	return m
}

// timeRoute returns a func that observes the elapsed time under route
// when called — `defer g.m.timeRoute("run")()` at the top of a handler.
func (m *gwMetrics) timeRoute(route string) func() {
	start := time.Now()
	return func() { m.byRoute[route].Observe(time.Since(start).Seconds()) }
}

// observeQueueWait is the admission controller's queue-wait hook. An
// unknown class (impossible while resolve only yields configured
// classes) degrades to the default series rather than dropping data.
func (m *gwMetrics) observeQueueWait(class string, seconds float64) {
	h := m.queueWait[class]
	if h == nil {
		h = m.queueWait[admission.DefaultClass]
	}
	h.Observe(seconds)
}
