// Package gateway is the horizontal half of the serving tier: an HTTP
// front that routes rumord's content-addressed jobs across N backends.
//
// Routing is a consistent-hash ring keyed by the job ID — the SHA-256 of
// the canonical request that the backends themselves key dedup, caching,
// and disk spill by (serve.JobID / serve.SweepJobID, recomputed here
// from the same request bytes). Identical specs from any client land on
// the same backend, so in-flight singleflight dedup and warm caches keep
// collapsing duplicates across processes with zero shared state.
//
// Failure handling leans entirely on the determinism the engine layers
// guarantee: a job retried anywhere returns byte-identical bytes, so the
// gateway is free to retry on connection errors, timeouts, and 5xxs with
// exponential backoff plus jitter, failing over around the ring, and to
// resume a dead backend's NDJSON stream by re-running the job elsewhere
// and skipping the frames already delivered. Backends are ejected by an
// active /v1/readyz checker (draining backends stop receiving work
// before their 503s start) and readmitted when probes recover. When every
// backend is ejected the gateway load-sheds with 503 + Retry-After
// instead of queueing unbounded work it cannot place.
//
// The same determinism lets the gateway answer replays itself. Once a
// backend has answered a waited run or sweep from a store (its cache, its
// disk tier, or an in-flight job it joined), the gateway holds that reply
// under the job ID and answers the next waited request for it after
// admission, with no backend hop. Held replies live in the job-ID memory
// that stream rerun already keeps, bounded by bytes, and die with the
// process.
package gateway

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rumor/internal/admission"
	"rumor/internal/lru"
)

// Options configures a Gateway. Backends is required; everything else
// defaults sanely for a LAN of rumord processes.
type Options struct {
	// Backends are the rumord addresses ("host:port"; an http:// prefix is
	// tolerated and stripped). At least one is required.
	Backends []string
	// Replicas is the virtual-node count per backend on the ring.
	// Default 64.
	Replicas int
	// Attempts bounds tries per proxied request (first try included).
	// Default 3.
	Attempts int
	// PerTryTimeout bounds each buffered proxy attempt (streams are
	// exempt — they are long-lived by design). Default 15s.
	PerTryTimeout time.Duration
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts: attempt k sleeps a jittered duration in
	// [base·2ᵏ/2, base·2ᵏ], capped at BackoffMax. Defaults 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// CheckInterval paces the active health checker; <= 0 disables it
	// (tests drive health by hand). Default 500ms.
	CheckInterval time.Duration
	// ProbeTimeout bounds one readyz probe. Default 2s, clamped to
	// CheckInterval when that is shorter.
	ProbeTimeout time.Duration
	// EjectAfter / ReadmitAfter are the consecutive-failure and
	// consecutive-success thresholds for ejection and re-admission.
	// Defaults 2 / 2.
	EjectAfter   int
	ReadmitAfter int
	// Client overrides the backend HTTP client (tests). Default: a
	// dedicated client with a pooled transport.
	Client *http.Client

	// Quotas configures per-client admission: rate limits, concurrency
	// quotas, and DRR weights, keyed by API key. The zero value leaves
	// every client unlimited at weight 1 (global caps still apply).
	Quotas admission.Config
	// AdmissionMaxInFlight caps concurrently dispatched submissions across
	// all clients — size it near the backends' aggregate worker count so
	// saturation queues at the gateway, where fairness is enforced,
	// instead of deep in backend FIFOs. Default 256.
	AdmissionMaxInFlight int
	// AdmissionMaxQueue caps submissions held in the fair queue; beyond it
	// the gateway sheds with 503 + Retry-After. Default 1024.
	AdmissionMaxQueue int
}

func (o Options) replicas() int {
	if o.Replicas > 0 {
		return o.Replicas
	}
	return 64
}

func (o Options) attempts() int {
	if o.Attempts > 0 {
		return o.Attempts
	}
	return 3
}

func (o Options) perTryTimeout() time.Duration {
	if o.PerTryTimeout > 0 {
		return o.PerTryTimeout
	}
	return 15 * time.Second
}

func (o Options) backoffBase() time.Duration {
	if o.BackoffBase > 0 {
		return o.BackoffBase
	}
	return 50 * time.Millisecond
}

func (o Options) backoffMax() time.Duration {
	if o.BackoffMax > 0 {
		return o.BackoffMax
	}
	return 2 * time.Second
}

func (o Options) checkInterval() time.Duration { return o.CheckInterval }

func (o Options) probeTimeout() time.Duration {
	pt := o.ProbeTimeout
	if pt <= 0 {
		pt = 2 * time.Second
	}
	if ci := o.CheckInterval; ci > 0 && ci < pt {
		pt = ci
	}
	return pt
}

func (o Options) ejectAfter() int {
	if o.EjectAfter > 0 {
		return o.EjectAfter
	}
	return 2
}

func (o Options) readmitAfter() int {
	if o.ReadmitAfter > 0 {
		return o.ReadmitAfter
	}
	return 2
}

// The job-ID memory is bounded by bytes, not entries: each entry is
// charged specCost, and the least recently used entries go once the total
// passes specMemoryBytes. Every entry costs at least specEntryOverhead
// (roughly its LRU node, map slot and slice headers), so the byte budget
// also bounds the entry count.
const (
	specMemoryBytes   = 32 << 20
	specEntryOverhead = 256
)

// rerunSpec is what the gateway remembers about a request it routed: the
// endpoint and the original body, enough to re-create the job on another
// backend if the one streaming it dies mid-stream — and, once a backend
// has replayed the job's result, that result, so the next waited request
// for the job is answered without a backend hop.
type rerunSpec struct {
	path string // "/v1/run" or "/v1/sweep"
	body []byte
	resp []byte // held 200 body; nil until a backend answered from a store
}

// specCost prices one job-ID memory entry against specMemoryBytes.
func specCost(id string, s rerunSpec) int64 {
	return int64(len(id) + cap(s.body) + cap(s.resp) + specEntryOverhead)
}

// Gateway fronts the ring. Create with New, expose with Handler, stop
// with Close.
type Gateway struct {
	opts     Options
	ring     *ring
	backends []*backend
	client   *http.Client
	specs    *lru.Cache[string, rerunSpec] // job ID → request (+ held reply)

	requests      atomic.Int64 // proxied requests accepted for routing
	held          atomic.Int64 // waited submissions answered from a held reply
	retries       atomic.Int64 // extra attempts after a failed one
	failovers     atomic.Int64 // retries that moved to a different backend
	shed          atomic.Int64 // 503s for keys with no healthy backend
	exhausted     atomic.Int64 // 502s after all attempts failed
	streamResumes atomic.Int64 // streams continued after a mid-stream failure
	streamReruns  atomic.Int64 // resumes that had to re-create the job first

	m   *gwMetrics            // /metrics instruments (always on; scrape-time reads)
	adm *admission.Controller // per-client fairness, quotas, headroom shedding

	stop      chan struct{}
	closeOnce sync.Once
	checkerWG sync.WaitGroup
}

// New builds a Gateway over opts.Backends and starts its health checker
// (unless CheckInterval <= 0).
func New(opts Options) (*Gateway, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("gateway: at least one backend is required")
	}
	addrs := make([]string, 0, len(opts.Backends))
	seen := make(map[string]bool)
	for _, a := range opts.Backends {
		a = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(a), "http://"), "/")
		if a == "" {
			return nil, fmt.Errorf("gateway: empty backend address")
		}
		if seen[a] {
			return nil, fmt.Errorf("gateway: duplicate backend %s", a)
		}
		seen[a] = true
		addrs = append(addrs, a)
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	g := &Gateway{
		opts:   opts,
		ring:   newRing(addrs, opts.replicas()),
		client: client,
		specs:  lru.New[string, rerunSpec](specMemoryBytes / specEntryOverhead),
		stop:   make(chan struct{}),
	}
	g.specs.SetCost(specMemoryBytes, specCost)
	for _, a := range addrs {
		g.backends = append(g.backends, newBackend(a))
	}
	// Cold retry hints fall back to the health-sweep cadence until a
	// drain rate has been observed (the clamp keeps it >= 1s).
	g.adm = admission.NewController(admission.Options{
		Config:        opts.Quotas,
		MaxInFlight:   opts.AdmissionMaxInFlight,
		MaxQueue:      opts.AdmissionMaxQueue,
		Headroom:      g.aggregateHeadroom,
		RetryFallback: opts.checkInterval(),
	})
	g.m = newGWMetrics(g)
	g.adm.SetQueueWait(g.m.observeQueueWait)
	if opts.checkInterval() > 0 {
		g.checkerWG.Add(1)
		go g.checkLoop()
	}
	return g, nil
}

// Close stops the health checker. In-flight proxied requests are not
// interrupted; the HTTP server owning the handler decides their fate.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() { close(g.stop) })
	g.checkerWG.Wait()
}

// Handler returns the gateway's HTTP API — the same surface as a
// backend, plus the gateway's own health report:
//
//	POST /v1/run              routed by job ID; retried/failed-over
//	POST /v1/sweep            routed by sweep job ID
//	GET  /v1/jobs/{id}        routed by ID; 404s fan out around the ring
//	GET  /v1/jobs/{id}/stream proxied NDJSON; resumes by rerun on failure
//	GET  /v1/healthz          gateway + per-backend health and counters
//	GET  /metrics             Prometheus text exposition
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", g.handleRun)
	mux.HandleFunc("POST /v1/sweep", g.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", g.handleStream)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	mux.Handle("GET /metrics", g.m.scrapeHandler())
	return mux
}

// candidates returns the healthy backends for key in failover order,
// stable-partitioned by headroom: backends with room (or with headroom
// still unknown) keep their ring order up front, backends that reported
// a full queue move to the back — still reachable, because a stale
// "full" beats an empty candidate list, but only after everyone else
// declined. down reports how many ring nodes were skipped as unhealthy.
func (g *Gateway) candidates(key string) (cands []*backend, down int) {
	var full []*backend
	for _, node := range g.ring.sequence(key) {
		b := g.backends[node]
		switch {
		case !b.healthy.Load():
			down++
		case b.headroom.Load() == 0:
			full = append(full, b)
		default:
			cands = append(cands, b)
		}
	}
	return append(cands, full...), down
}

// aggregateHeadroom sums the queue headroom of the healthy backends.
// The figure is known only when every healthy backend has reported one:
// a single unknown could hide arbitrary capacity, and shedding on a
// guess would turn a probe hiccup into client-visible 503s.
func (g *Gateway) aggregateHeadroom() (int, bool) {
	sum, known := 0, false
	for _, b := range g.backends {
		if !b.healthy.Load() {
			continue
		}
		h := b.headroom.Load()
		if h < 0 {
			return 0, false
		}
		sum += int(h)
		known = true
	}
	return sum, known
}

// remember stores the original request for id so a dying stream can be
// resumed by re-running the job on another backend. An ID already
// remembered keeps its entry: that entry may hold a reply, and the
// request it carries is as good as this one.
func (g *Gateway) remember(id, path string, body []byte) {
	g.specs.GetOrBuild(id, func() rerunSpec {
		return rerunSpec{path: path, body: bytes.Clone(body)}
	})
}

// hold adds resp to id's remembered request as the reply to its waited
// requests. Every backend answers a job with the same bytes, so an entry
// that already holds a reply is left as it is, and one the budget evicted
// meanwhile is not brought back.
func (g *Gateway) hold(id string, resp []byte) {
	if s, ok := g.specs.Get(id); ok && s.resp == nil {
		s.resp = bytes.Clone(resp)
		g.specs.Put(id, s)
	}
}

// BackendHealth is one backend's entry in the gateway health report.
type BackendHealth struct {
	Addr                string `json:"addr"`
	Healthy             bool   `json:"healthy"`
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	Ejections           int64  `json:"ejections"`
	Checks              int64  `json:"checks"`
	// Headroom is the last queue headroom the backend reported on
	// /v1/readyz; -1 until the first successful probe.
	Headroom int64 `json:"headroom"`
}

// Stats is the gateway's counter snapshot, exposed on /v1/healthz and
// read by cmd/soak for its exit summary.
type Stats struct {
	Requests      int64 `json:"requests"` // proxied; held replies are not counted
	Held          int64 `json:"held"`     // waited submissions answered from a held reply
	Retries       int64 `json:"retries"`
	Failovers     int64 `json:"failovers"`
	Shed          int64 `json:"shed"`
	Exhausted     int64 `json:"exhausted"`
	StreamResumes int64 `json:"streamResumes"`
	StreamReruns  int64 `json:"streamReruns"`
}

// Snapshot returns the current counters.
func (g *Gateway) Snapshot() Stats {
	return Stats{
		Requests:      g.requests.Load(),
		Held:          g.held.Load(),
		Retries:       g.retries.Load(),
		Failovers:     g.failovers.Load(),
		Shed:          g.shed.Load(),
		Exhausted:     g.exhausted.Load(),
		StreamResumes: g.streamResumes.Load(),
		StreamReruns:  g.streamReruns.Load(),
	}
}

// Backends returns the per-backend health report.
func (g *Gateway) Backends() []BackendHealth {
	out := make([]BackendHealth, 0, len(g.backends))
	for _, b := range g.backends {
		out = append(out, BackendHealth{
			Addr:                b.addr,
			Healthy:             b.healthy.Load(),
			ConsecutiveFailures: int(b.consecFail.Load()),
			Ejections:           b.ejections.Load(),
			Checks:              b.checks.Load(),
			Headroom:            b.headroom.Load(),
		})
	}
	return out
}

// Admission returns the admission controller's counter snapshot; the
// conservation law holds on every call (see admission.Stats).
func (g *Gateway) Admission() admission.Stats { return g.adm.Stats() }

// healthzBody is the GET /v1/healthz response.
type healthzBody struct {
	Status    string          `json:"status"`
	Stats     Stats           `json:"stats"`
	Admission admission.Stats `json:"admission"`
	Backends  []BackendHealth `json:"backends"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzBody{
		Status:    "ok",
		Stats:     g.Snapshot(),
		Admission: g.Admission(),
		Backends:  g.Backends(),
	})
}
