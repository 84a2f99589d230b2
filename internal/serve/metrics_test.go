package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"rumor/internal/experiment"
	"rumor/internal/metrics"
)

// scrape fetches and parses ts's /metrics.
func scrape(t *testing.T, url string) *metrics.Scrape {
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

// TestMetricsEndpoint drives run/repeat/sweep traffic and checks the
// scrape: full series inventory from boot, the submission conservation
// law, populated per-protocol latency histograms, and zero errors.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	// Before any traffic: every pre-registered series already exists,
	// including all five protocol histogram children.
	sc := scrape(t, ts.URL)
	for _, p := range experiment.Protos() {
		if !sc.Has("rumord_simulation_seconds_bucket", map[string]string{"protocol": string(p)}) {
			t.Fatalf("protocol %q histogram missing from boot scrape", p)
		}
	}
	for _, name := range []string{
		"rumord_requests_total", "rumord_simulations_total", "rumord_failures_total",
		"rumord_internal_errors_total", "rumord_spill_errors_total", "rumord_queue_capacity",
		"rumor_graph_memo_hits_total", "rumor_graph_csr_opens_total",
	} {
		if !sc.Has(name, nil) {
			t.Fatalf("series %s missing from boot scrape", name)
		}
	}

	// Traffic: a fresh run, a cache replay, and a sweep overlapping it.
	if code, _, body := postRun(t, ts, specStarVisitX); code != http.StatusOK {
		t.Fatalf("run: %d %s", code, body)
	}
	if code, hdr, body := postRun(t, ts, specStarVisitX); code != http.StatusOK || hdr.Get("X-Rumord-Source") != "cache" {
		t.Fatalf("repeat: %d source=%q %s", code, hdr.Get("X-Rumord-Source"), body)
	}
	sweep := `{"graphs":["star:64"],"protocols":["visitx","push"],"seeds":[3],"defaults":{"trials":6}}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d", resp.StatusCode)
	}

	sc = scrape(t, ts.URL)
	requests := sc.Sum("rumord_requests_total")
	bySource := sc.Sum("rumord_requests_by_source_total")
	rejected := sc.Sum("rumord_submit_rejections_total")
	if requests == 0 || requests != bySource+rejected {
		t.Fatalf("conservation: requests=%v by_source=%v rejections=%v", requests, bySource, rejected)
	}
	if v, _ := sc.Value("rumord_requests_by_source_total", map[string]string{"source": "cache"}); v < 1 {
		t.Fatalf("cache source count = %v, want >= 1", v)
	}
	// visitx ran for the run + sweep point (deduped/cached), push fresh in
	// the sweep: both histograms must be populated and internally valid.
	for _, p := range []string{"visitx", "push"} {
		n, err := sc.CheckHistogram("rumord_simulation_seconds", map[string]string{"protocol": p})
		if err != nil {
			t.Fatalf("%s histogram: %v", p, err)
		}
		if n < 1 {
			t.Fatalf("%s histogram count = %d, want >= 1", p, n)
		}
	}
	if v := sc.Sum("rumord_sweep_points_total"); v != 2 {
		t.Fatalf("sweep points = %v, want 2", v)
	}
	for _, name := range []string{"rumord_internal_errors_total", "rumord_failures_total", "rumord_spill_errors_total"} {
		if v := sc.Sum(name); v != 0 {
			t.Fatalf("%s = %v, want 0", name, v)
		}
	}
	if got := sc.Sum("rumord_simulations_total"); got < 2 {
		t.Fatalf("simulations = %v, want >= 2", got)
	}
}

// TestMetricsReadableWhileDraining pins the drain exemption: once
// Shutdown stops intake, /metrics and /v1/healthz still answer 200
// (operators watch the drain complete) while /v1/readyz and submissions
// answer 503.
func TestMetricsReadableWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	release := setGate(s)
	// Hold one job running so the drain has something to wait on.
	done := make(chan struct{})
	go func() {
		defer close(done)
		postRun(t, ts, specStarVisitX)
	}()
	waitUntil(t, "job accepted", func() bool { return s.Stats().JobsLive >= 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitUntil(t, "draining", s.Draining)

	sc := scrape(t, ts.URL) // must be 200 mid-drain
	if v, _ := sc.Value("rumord_draining", nil); v != 1 {
		t.Fatalf("rumord_draining = %v, want 1 mid-drain", v)
	}
	if resp, err := http.Get(ts.URL + "/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz mid-drain: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz mid-drain: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	spec2 := `{"graph":"star:32","protocol":"push","trials":3,"seed":9}`
	if code, _, _ := postRun(t, ts, spec2); code != http.StatusServiceUnavailable {
		t.Fatalf("run mid-drain: %d, want 503", code)
	}
	sc = scrape(t, ts.URL)
	if v, _ := sc.Value("rumord_submit_rejections_total", map[string]string{"reason": "draining"}); v < 1 {
		t.Fatalf("draining rejections = %v, want >= 1", v)
	}

	close(release)
	<-done
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Post-drain, the scrape still answers (the HTTP front is the
	// caller's to stop) and shows the drained steady state.
	sc = scrape(t, ts.URL)
	if v, _ := sc.Value("rumord_jobs_live", nil); v != 0 {
		t.Fatalf("jobs_live after drain = %v, want 0", v)
	}
}
