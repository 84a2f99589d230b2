package gateway

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rumor/internal/metrics"
)

// scrapeGW fetches and parses the gateway's /metrics.
func scrapeGW(t *testing.T, url string) *metrics.Scrape {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	sc, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	return sc
}

// TestGatewayMetrics drives a proxied request plus a failing backend and
// checks the scrape: func-backed counters agree with Snapshot, per-
// backend series carry the backend label, and the route histogram is
// populated and internally valid.
func TestGatewayMetrics(t *testing.T) {
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}` + "\n"))
	}))
	defer ok.Close()
	dead := deadAddr(t)
	g := newGateway(t, Options{
		Backends:    []string{hostPort(t, ok.URL), dead},
		Attempts:    4,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// Boot inventory: every series exists before traffic, including both
	// backends' children and all four route histograms.
	sc := scrapeGW(t, ts.URL)
	for _, name := range []string{
		"rumorgw_requests_total", "rumorgw_retries_total", "rumorgw_failovers_total",
		"rumorgw_shed_total", "rumorgw_exhausted_total", "rumorgw_stream_resumes_total",
		"rumorgw_ring_backends", "rumorgw_healthy_backends",
	} {
		if !sc.Has(name, nil) {
			t.Fatalf("series %s missing from boot scrape", name)
		}
	}
	for _, addr := range []string{hostPort(t, ok.URL), dead} {
		if !sc.Has("rumorgw_backend_requests_total", map[string]string{"backend": addr}) {
			t.Fatalf("backend %s missing from rumorgw_backend_requests_total", addr)
		}
	}
	for _, route := range gwRoutes {
		if !sc.Has("rumorgw_request_seconds_bucket", map[string]string{"route": route}) {
			t.Fatalf("route %q histogram missing from boot scrape", route)
		}
	}
	if v, _ := sc.Value("rumorgw_ring_backends", nil); v != 2 {
		t.Fatalf("ring_backends = %v, want 2", v)
	}

	// Traffic: proxied runs until one lands on the dead backend's key
	// space or succeeds directly; either way requests/attempts move.
	for i := 0; i < 4; i++ {
		body := strings.NewReader(`{"graph":"star:16","protocol":"push","trials":2,"seed":` + string(rune('1'+i)) + `}`)
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	sc = scrapeGW(t, ts.URL)
	snap := g.Snapshot()
	if v, _ := sc.Value("rumorgw_requests_total", nil); int64(v) != snap.Requests {
		t.Fatalf("metrics requests %v != snapshot %d", v, snap.Requests)
	}
	if v, _ := sc.Value("rumorgw_retries_total", nil); int64(v) != snap.Retries {
		t.Fatalf("metrics retries %v != snapshot %d", v, snap.Retries)
	}
	if sc.Sum("rumorgw_backend_requests_total") < 4 {
		t.Fatalf("backend attempts = %v, want >= 4", sc.Sum("rumorgw_backend_requests_total"))
	}
	n, err := sc.CheckHistogram("rumorgw_request_seconds", map[string]string{"route": "run"})
	if err != nil {
		t.Fatalf("run histogram: %v", err)
	}
	if n != 4 {
		t.Fatalf("run histogram count = %d, want 4", n)
	}
}

// TestGatewayMetricsEjection pins the ejection/readmission series
// against a backend that dies and recovers under the active checker.
func TestGatewayMetricsEjection(t *testing.T) {
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	addr := hostPort(t, flaky.URL)
	g := newGateway(t, Options{
		Backends:      []string{addr},
		CheckInterval: 10 * time.Millisecond,
		EjectAfter:    2,
		ReadmitAfter:  2,
	})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	waitUntil(t, "ejection", func() bool { return !g.backends[0].healthy.Load() })
	flaky.Close()

	sc := scrapeGW(t, ts.URL)
	if v, _ := sc.Value("rumorgw_backend_ejections_total", map[string]string{"backend": addr}); v < 1 {
		t.Fatalf("ejections = %v, want >= 1", v)
	}
	if v, _ := sc.Value("rumorgw_backend_healthy", map[string]string{"backend": addr}); v != 0 {
		t.Fatalf("backend_healthy = %v, want 0 after ejection", v)
	}
	if v, _ := sc.Value("rumorgw_healthy_backends", nil); v != 0 {
		t.Fatalf("healthy_backends = %v, want 0", v)
	}
	if v, _ := sc.Value("rumorgw_backend_checks_total", map[string]string{"backend": addr}); v < 2 {
		t.Fatalf("checks = %v, want >= 2", v)
	}
}

// TestGatewayMetricsAdmissionConservedSlowRender: every exposition reads
// one admission snapshot, however long it takes to render. A probe series
// that sleeps 30 ms sorts between the admission series read before it
// (accepted, canceled, queue occupancy) and after it (shed, submitted,
// throttled) while clients keep submitting, so a render that re-read the
// controller part-way through would break submitted == accepted +
// throttled + shed + canceled + queued.
func TestGatewayMetricsAdmissionConservedSlowRender(t *testing.T) {
	sb := newStubBackend(t)
	sb.headroom.Store(8)
	g := newGateway(t, Options{Backends: []string{hostPort(t, sb.ts.URL)}})
	g.m.reg.GaugeFunc("rumorgw_admission_render_probe", "Sleeps to slow the render (test only).",
		func() float64 { time.Sleep(30 * time.Millisecond); return 0 })
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := uint64(c) << 32; ; seed++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(runSpec(seed)))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	var last float64
	for range 6 {
		sc := scrapeGW(t, ts.URL)
		sub := sc.Sum("rumorgw_admission_submitted_total")
		sum := sc.Sum("rumorgw_admission_accepted_total") + sc.Sum("rumorgw_admission_throttled_total") +
			sc.Sum("rumorgw_admission_shed_total") + sc.Sum("rumorgw_admission_canceled_total") +
			sc.Sum("rumorgw_admission_queue_occupancy")
		if sub != sum {
			t.Errorf("exposition mixes snapshots: submitted %v, accepted + throttled + shed + canceled + queued %v", sub, sum)
		}
		last = sub
	}
	close(stop)
	wg.Wait()
	if last == 0 {
		t.Fatal("no submission reached admission while the scrapes rendered")
	}
}
