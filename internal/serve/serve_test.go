package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer starts a Server plus its HTTP front; the cleanup drains
// it so no test leaks workers.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return s, ts
}

// setGate installs a test gate that blocks every simulation until release
// is closed.
func setGate(s *Server) (release chan struct{}) {
	release = make(chan struct{})
	s.lifecycle.Lock()
	s.testRunGate = func(*Job) { <-release }
	s.lifecycle.Unlock()
	return release
}

func postRun(t *testing.T, ts *httptest.Server, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const specStarVisitX = `{"graph":"star:64","protocol":"visitx","trials":6,"seed":3}`

// TestRunDedup: N identical concurrent requests must share one
// simulation and receive byte-identical bodies.
func TestRunDedup(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	release := setGate(s)
	const clients = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = postRun(t, ts, specStarVisitX)
		}(i)
	}
	// Every request must be submitted (1 run + 7 dedup) before the gate
	// opens, so the dedup window is guaranteed, not raced.
	waitUntil(t, "all submissions", func() bool { return s.Stats().Requests >= clients })
	close(release)
	wg.Wait()
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs from client 0", i)
		}
	}
	st := s.Stats()
	if st.Simulations != 1 {
		t.Fatalf("ran %d simulations for %d identical requests, want 1", st.Simulations, clients)
	}
	if st.DedupHits != clients-1 {
		t.Fatalf("dedupHits = %d, want %d", st.DedupHits, clients-1)
	}
}

// TestRunCacheByteIdentical: cached responses replay the fresh bytes; a
// recompute after eviction reproduces them bit-for-bit (engine
// determinism end to end).
func TestRunCacheByteIdentical(t *testing.T) {
	// One shard so CacheSize 1 is a true global bound and the evictor
	// below reliably displaces the first entry.
	_, ts := newTestServer(t, Options{Workers: 1, CacheSize: 1, Shards: 1})
	code, hdr, fresh := postRun(t, ts, specStarVisitX)
	if code != http.StatusOK {
		t.Fatalf("fresh: status %d body %s", code, fresh)
	}
	if got := hdr.Get("X-Rumord-Source"); got != "run" {
		t.Fatalf("fresh source = %q, want run", got)
	}
	code, hdr, cached := postRun(t, ts, specStarVisitX)
	if code != http.StatusOK || hdr.Get("X-Rumord-Source") != "cache" {
		t.Fatalf("second request: status %d source %q", code, hdr.Get("X-Rumord-Source"))
	}
	if !bytes.Equal(cached, fresh) {
		t.Fatal("cached body differs from fresh body")
	}
	// Evict (cache capacity 1) with a different spec, then recompute.
	if code, _, b := postRun(t, ts, `{"graph":"cycle:32","protocol":"push","trials":2,"seed":1}`); code != http.StatusOK {
		t.Fatalf("evictor: status %d body %s", code, b)
	}
	code, hdr, recomputed := postRun(t, ts, specStarVisitX)
	if code != http.StatusOK || hdr.Get("X-Rumord-Source") != "run" {
		t.Fatalf("third request: status %d source %q (want a fresh run after eviction)", code, hdr.Get("X-Rumord-Source"))
	}
	if !bytes.Equal(recomputed, fresh) {
		t.Fatal("recomputed body differs from original fresh body: determinism broken")
	}
	// Spellings that normalize identically must hit the same cache entry.
	code, hdr, alias := postRun(t, ts, `{"graph":"  STAR : 64 ","protocol":"visitx","trials":6,"seed":3,"lazy":"auto"}`)
	if code != http.StatusOK || hdr.Get("X-Rumord-Source") != "cache" {
		t.Fatalf("alias spelling: status %d source %q, want cache hit", code, hdr.Get("X-Rumord-Source"))
	}
	if !bytes.Equal(alias, fresh) {
		t.Fatal("alias body differs")
	}
}

// streamLines fetches a job stream and returns its NDJSON lines.
func streamLines(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	return lines
}

// checkStream asserts lines are trials frames in strict trial order plus
// a terminal done frame, and returns the joined bytes.
func checkStream(t *testing.T, lines []string, trials int) string {
	t.Helper()
	if len(lines) != trials+1 {
		t.Fatalf("stream has %d lines, want %d trials + 1 terminal", len(lines), trials)
	}
	for i := 0; i < trials; i++ {
		var frame struct {
			Trial  *int `json:"trial"`
			Rounds int  `json:"rounds"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &frame); err != nil {
			t.Fatalf("line %d: %v (%s)", i, err, lines[i])
		}
		if frame.Trial == nil || *frame.Trial != i {
			t.Fatalf("line %d carries trial %v, want %d (strict order)", i, frame.Trial, i)
		}
	}
	var fin struct {
		Done   bool   `json:"done"`
		Trials int    `json:"trials"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[trials]), &fin); err != nil {
		t.Fatal(err)
	}
	if !fin.Done || fin.Trials != trials || fin.Error != "" {
		t.Fatalf("terminal frame %+v, want done with %d trials", fin, trials)
	}
	return strings.Join(lines, "\n")
}

// TestStreamOrdering: the NDJSON stream yields one frame per trial in
// strict trial order, closed by a terminal frame — both followed live and
// replayed from cache, with identical bytes.
func TestStreamOrdering(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	release := setGate(s)
	const trials = 16
	body := fmt.Sprintf(`{"graph":"star:48","protocol":"meetx","trials":%d,"seed":9}`, trials)
	// Submit async while gated, so the follower attaches before any frame
	// exists and genuinely follows the live run.
	resp, err := http.Post(ts.URL+"/v1/run?wait=0", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Rumord-Job")
	if id == "" {
		t.Fatal("no job id header")
	}
	liveCh := make(chan []string, 1)
	go func() { liveCh <- streamLines(t, ts, id) }()
	// The follower must be waiting on the empty job before trials start.
	time.Sleep(20 * time.Millisecond)
	close(release)
	live := checkStream(t, <-liveCh, trials)
	// Replay from the completed-result cache must be byte-identical.
	replay := checkStream(t, streamLines(t, ts, id), trials)
	if live != replay {
		t.Fatal("live-followed stream differs from cached replay")
	}
}

// TestGracefulShutdown: Shutdown must reject new work with 503 while
// draining, wait for in-flight jobs, and deliver their full results to
// waiting clients.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := setGate(s)

	var wg sync.WaitGroup
	var code int
	var body []byte
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, _, body = postRun(t, ts, specStarVisitX)
	}()
	waitUntil(t, "job submitted", func() bool { return s.Stats().JobsLive == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitUntil(t, "draining", func() bool { return s.Stats().Draining })

	// New work is rejected while the in-flight job drains.
	rcode, _, rbody := postRun(t, ts, `{"graph":"cycle:16","protocol":"push","trials":1,"seed":1}`)
	if rcode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: status %d body %s, want 503", rcode, rbody)
	}

	// Shutdown must be blocked on the gated job, not returning early.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a job was still running", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("drained job client: status %d body %s", code, body)
	}
	var full struct {
		Completed int `json:"completed"`
		Trials    []struct {
			Trial int `json:"trial"`
		} `json:"trials"`
	}
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Trials) != 6 || full.Completed != 6 {
		t.Fatalf("drained result incomplete: %d trials, %d completed", len(full.Trials), full.Completed)
	}
}

// TestSweepAndJobEndpoint: an async sweep plans the cross-product (202
// with per-point provenance), the sweep and its point jobs report status,
// and a resubmitted sweep is served from the store without simulating.
func TestSweepAndJobEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	body := `{"defaults":{"graph":"star:8","trials":2,"seed":5},
	          "graphs":["star:24","cycle:24"],"protocols":["push","push-pull"]}`
	resp, err := http.Post(ts.URL+"/v1/sweep?wait=0", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status %d body %s", resp.StatusCode, b)
	}
	sweepID := resp.Header.Get("X-Rumord-Job")
	if sweepID == "" {
		t.Fatal("no sweep job id header")
	}
	var sw sweepStatus
	if err := json.Unmarshal(b, &sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Plan) != 4 {
		t.Fatalf("sweep planned %d points, want 4", len(sw.Plan))
	}
	if sw.Points != 4 {
		t.Fatalf("sweep status points = %d, want 4", sw.Points)
	}
	// Every point job and the sweep itself complete and embed results.
	ids := []string{sweepID}
	for _, p := range sw.Plan {
		if p.Source != "run" {
			t.Fatalf("cold sweep point %s resolved from %q, want run", p.Job, p.Source)
		}
		ids = append(ids, p.Job)
	}
	for _, id := range ids {
		waitUntil(t, "job "+id, func() bool {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			jb, _ := io.ReadAll(resp.Body)
			var st struct {
				Status string          `json:"status"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(jb, &st); err != nil {
				t.Fatal(err)
			}
			return st.Status == "done" && len(st.Result) > 0
		})
	}
	// Resubmitting the same sweep (waited this time) must be served from
	// the store: no new simulations, no new plan.
	sims := s.Stats().Simulations
	resp, err = http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmitted sweep status %d body %s", resp.StatusCode, rb)
	}
	if src := resp.Header.Get("X-Rumord-Source"); src != "cache" {
		t.Fatalf("resubmitted sweep source %q, want cache", src)
	}
	if got := s.Stats().Simulations; got != sims {
		t.Fatalf("resubmitted sweep started %d new simulations", got-sims)
	}
	var full struct {
		Sweep  string `json:"sweep"`
		Points []struct {
			Job    string          `json:"job"`
			Result json.RawMessage `json:"result"`
		} `json:"points"`
	}
	if err := json.Unmarshal(rb, &full); err != nil {
		t.Fatal(err)
	}
	if full.Sweep != sweepID || len(full.Points) != 4 {
		t.Fatalf("assembled sweep = %s with %d points, want %s with 4", full.Sweep, len(full.Points), sweepID)
	}
	for i, p := range full.Points {
		if len(p.Result) == 0 {
			t.Fatalf("point %d has no embedded result", i)
		}
	}
}

// TestRequestValidation: malformed requests fail fast with 4xx.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		body string
		want int
	}{
		{`{"graph":"star:16","protocol":"gossip"}`, http.StatusBadRequest},
		{`{"graph":"nope:1"}`, http.StatusBadRequest},
		{`{"graph":"star:16","bogusKnob":3}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"graph":"star:8"}{"graph":"star:16"}`, http.StatusBadRequest},  // trailing content
		{`{"graph":"star:0","trials":1}`, http.StatusUnprocessableEntity}, // parses, fails to build
		{`{"graph":"hypercube:31","trials":1}`, http.StatusBadRequest},    // outside the parsed domain
		{`{"graph":"randreg:9,3","trials":1}`, http.StatusBadRequest},
		{`{"graph":"randreg:10,11","trials":1}`, http.StatusBadRequest},
		{`{"graph":"star:3000000000","trials":1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		code, _, body := postRun(t, ts, c.body)
		if code != c.want {
			t.Errorf("POST %s: status %d body %s, want %d", c.body, code, body, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}
}

// TestHealthz: liveness endpoint reports counters.
func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	if code, _, b := postRun(t, ts, specStarVisitX); code != http.StatusOK {
		t.Fatalf("run: %d %s", code, b)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Stats.Simulations != 1 || h.Stats.CacheLen != 1 {
		t.Fatalf("healthz %+v", h)
	}
	_ = s
}
