package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rumor/internal/experiment"
	"rumor/internal/serve"
)

const specBody = `{"graph":"star:16","protocol":"push","trials":2,"seed":9}`

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

// hostPort strips the scheme from an httptest URL.
func hostPort(t *testing.T, url string) string {
	t.Helper()
	return strings.TrimPrefix(url, "http://")
}

// deadAddr returns an address that refuses connections: a port that was
// just bound and released.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func newGateway(t *testing.T, opts Options) *Gateway {
	t.Helper()
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// TestScriptedFailureSequence drives the retry loop through the full
// failure alphabet — refused connection, 500, a hang past the per-try
// timeout — before a healthy response, asserting at-most-N attempts,
// round-robin failover, and the deterministic backoff lower bound.
func TestScriptedFailureSequence(t *testing.T) {
	var hits atomic.Int32
	scripted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 1:
			http.Error(w, "transient", http.StatusInternalServerError)
		case 2:
			time.Sleep(2 * time.Second) // well past the per-try timeout
			w.Write([]byte("too late"))
		default:
			w.Write([]byte(`{"ok":true}`))
		}
	}))
	defer scripted.Close()

	g := newGateway(t, Options{
		Backends:      []string{deadAddr(t), hostPort(t, scripted.URL)},
		Attempts:      6,
		PerTryTimeout: 100 * time.Millisecond,
		BackoffBase:   10 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
	})
	// Explicit candidate order: the dead backend first, so the sequence is
	// refuse → 500 → refuse → slow → refuse → healthy.
	cands := []*backend{g.backends[0], g.backends[1]}
	start := time.Now()
	resp, err := g.attemptProxy(context.Background(), cands, "GET", "/v1/healthz", "", nil,
		proxyPolicy{attempts: 6})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("attemptProxy: %v", err)
	}
	if resp.status != http.StatusOK || string(resp.body) != `{"ok":true}` {
		t.Fatalf("final response: %d %q", resp.status, resp.body)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("scripted backend saw %d requests, want 3 (500, slow, healthy)", n)
	}
	// Five failed attempts → five backoffs with deterministic lower halves:
	// 5 + 10 + 20 + 25 + 25 = 85ms (base 10ms doubling, capped at 50ms).
	if min := 85 * time.Millisecond; elapsed < min {
		t.Fatalf("elapsed %v < %v: backoff not applied", elapsed, min)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("elapsed %v: runaway retries", elapsed)
	}
	if got := g.retries.Load(); got != 5 {
		t.Fatalf("retries = %d, want 5", got)
	}
	if got := g.failovers.Load(); got != 5 {
		t.Fatalf("failovers = %d, want 5 (every retry switched backend)", got)
	}
}

// TestAtMostNAttempts: a persistently failing backend is asked exactly
// Attempts times, then the client gets 502 — the gateway never spins.
func TestAtMostNAttempts(t *testing.T) {
	var hits atomic.Int32
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	defer bad.Close()
	g := newGateway(t, Options{
		Backends:    []string{hostPort(t, bad.URL)},
		Attempts:    3,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(specBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d (%s), want 502", resp.StatusCode, body)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("backend saw %d attempts, want exactly 3", n)
	}
	if got := g.exhausted.Load(); got != 1 {
		t.Fatalf("exhausted = %d, want 1", got)
	}
}

// TestLoadShedWhenAllDown: with every ring node for the key ejected the
// gateway sheds immediately — 503 plus Retry-After — instead of queueing
// work it cannot place.
func TestLoadShedWhenAllDown(t *testing.T) {
	g := newGateway(t, Options{Backends: []string{deadAddr(t)}, CheckInterval: 0})
	g.backends[0].healthy.Store(false)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(specBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("load-shed 503 without Retry-After")
	}
	if got := g.shed.Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

// TestBadRequestsDontBurnRetries: a malformed spec — including a graph
// outside its family's parsed domain — is rejected at the gateway with
// 400 before any backend attempt.
func TestBadRequestsDontBurnRetries(t *testing.T) {
	var hits atomic.Int32
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer backend.Close()
	g := newGateway(t, Options{Backends: []string{hostPort(t, backend.URL)}})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"graph":"star:16","bogus":1}`,
		`{"graph":"nonsense:4","protocol":"push","trials":1}`,
		`{"graph":"hypercube:31","protocol":"push","trials":1}`,
		`{"graph":"randreg:9,3","protocol":"push","trials":1}`,
		`{"graph":"randreg:10,11","protocol":"push","trials":1}`,
		`{"graph":"star:3000000000","protocol":"push","trials":1}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("backend saw %d requests for malformed bodies, want 0", n)
	}
}

// TestEjectionAndReadmission: the active checker ejects a backend whose
// /v1/readyz fails (as a draining rumord's does) and readmits it when
// probes recover.
func TestEjectionAndReadmission(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/readyz" {
			http.NotFound(w, r)
			return
		}
		if ready.Load() {
			w.Write([]byte(`{"status":"ready"}`))
		} else {
			http.Error(w, `{"status":"draining"}`, http.StatusServiceUnavailable)
		}
	}))
	defer backend.Close()
	g := newGateway(t, Options{
		Backends:      []string{hostPort(t, backend.URL)},
		CheckInterval: 10 * time.Millisecond,
		EjectAfter:    2,
		ReadmitAfter:  2,
	})
	b := g.backends[0]
	waitUntil(t, "initial probes to pass", func() bool { return b.checks.Load() >= 2 })
	if !b.healthy.Load() {
		t.Fatal("backend unhealthy while readyz passes")
	}
	ready.Store(false)
	waitUntil(t, "ejection after readyz failures", func() bool { return !b.healthy.Load() })
	if got := b.ejections.Load(); got != 1 {
		t.Fatalf("ejections = %d, want 1", got)
	}
	ready.Store(true)
	waitUntil(t, "re-admission after readyz recovery", func() bool { return b.healthy.Load() })
}

// TestJob404Spread: a job lookup walks the whole ring before reporting
// 404, so a job living on any backend is found regardless of which ring
// node owns its ID today.
func TestJob404Spread(t *testing.T) {
	jobJSON := `{"job":"abc","status":"done"}` + "\n"
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown job"}`, http.StatusNotFound)
	}))
	defer empty.Close()
	holder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(jobJSON))
	}))
	defer holder.Close()

	g := newGateway(t, Options{
		Backends:    []string{hostPort(t, empty.URL), hostPort(t, holder.URL)},
		BackoffBase: time.Millisecond,
	})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/abc")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != jobJSON {
		t.Fatalf("job lookup: %d %q (must find the holder wherever it sits on the ring)", resp.StatusCode, body)
	}

	// All backends 404 → the gateway reports 404, not 502.
	g2 := newGateway(t, Options{
		Backends:    []string{hostPort(t, empty.URL)},
		BackoffBase: time.Millisecond,
	})
	ts2 := httptest.NewServer(g2.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/v1/jobs/missing")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("all-miss lookup: %d, want 404", resp2.StatusCode)
	}
}

// TestStreamResumeByRerun: a backend dies two frames into a stream, and
// its replacement doesn't know the job. The gateway must re-create the
// job from the remembered request, re-attach, skip the two delivered
// frames, and hand the client one seamless stream.
func TestStreamResumeByRerun(t *testing.T) {
	frames := [][]byte{
		[]byte(`{"trial":0,"rounds":3}` + "\n"),
		[]byte(`{"trial":1,"rounds":4}` + "\n"),
		[]byte(`{"trial":2,"rounds":2}` + "\n"),
		[]byte(`{"trial":3,"rounds":5}` + "\n"),
	}
	final := []byte(`{"done":true,"job":"x","trials":4}` + "\n")
	var posts, streams atomic.Int32
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == "POST":
			posts.Add(1)
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"job":"x","status":"queued"}` + "\n"))
		case strings.HasSuffix(r.URL.Path, "/stream"):
			switch streams.Add(1) {
			case 1:
				// Two frames, then the backend "dies" mid-stream.
				w.Write(frames[0])
				w.Write(frames[1])
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			case 2:
				// The restarted backend has never heard of the job.
				http.Error(w, `{"error":"unknown job"}`, http.StatusNotFound)
			default:
				for _, f := range frames {
					w.Write(f)
				}
				w.Write(final)
			}
		default:
			http.NotFound(w, r)
		}
	}))
	defer backend.Close()

	g := newGateway(t, Options{
		Backends:    []string{hostPort(t, backend.URL)},
		Attempts:    4,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// Seed the gateway's spec memory: route the job through it once.
	spec := experiment.DefaultRunSpec()
	if err := json.Unmarshal([]byte(specBody), &spec); err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	id := serve.JobID(norm)
	resp, err := http.Post(ts.URL+"/v1/run?wait=0", "application/json", strings.NewReader(specBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed POST status %d", resp.StatusCode)
	}

	sresp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Join(append(append([][]byte{}, frames...), final), nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("stream bytes:\ngot:  %q\nwant: %q", got, want)
	}
	if p := posts.Load(); p != 2 {
		t.Fatalf("backend saw %d POSTs, want 2 (original + rerun)", p)
	}
	if s := streams.Load(); s != 3 {
		t.Fatalf("backend saw %d stream GETs, want 3 (abort, 404, full)", s)
	}
	if got := g.streamReruns.Load(); got != 1 {
		t.Fatalf("streamReruns = %d, want 1", got)
	}
	if got := g.streamResumes.Load(); got != 1 {
		t.Fatalf("streamResumes = %d, want 1", got)
	}
}

// TestEndToEndRealBackends: the gateway in front of two real serve
// instances must return byte-identical results to the local reference
// oracle, route identical specs to one backend (cross-client dedup), and
// proxy streams intact.
func TestEndToEndRealBackends(t *testing.T) {
	newBackendServer := func() (*serve.Server, *httptest.Server) {
		s, err := serve.New(serve.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		return s, ts
	}
	s1, b1 := newBackendServer()
	s2, b2 := newBackendServer()
	g := newGateway(t, Options{Backends: []string{hostPort(t, b1.URL), hostPort(t, b2.URL)}})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	spec := experiment.DefaultRunSpec()
	if err := json.Unmarshal([]byte(specBody), &spec); err != nil {
		t.Fatal(err)
	}
	ref, err := serve.ComputeReference(spec)
	if err != nil {
		t.Fatal(err)
	}

	post := func() (http.Header, []byte) {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(specBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return resp.Header, body
	}
	hdr1, body1 := post()
	hdr2, body2 := post()
	if !bytes.Equal(body1, ref.Body) {
		t.Fatal("gateway-proxied body differs from local reference")
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("repeated request bodies differ")
	}
	if hdr1.Get("X-Rumorgw-Backend") != hdr2.Get("X-Rumorgw-Backend") {
		t.Fatalf("identical spec routed to different backends: %s vs %s",
			hdr1.Get("X-Rumorgw-Backend"), hdr2.Get("X-Rumorgw-Backend"))
	}
	if src := hdr2.Get("X-Rumord-Source"); src != "cache" && src != "dedup" {
		t.Fatalf("second request source %q: consistent routing should hit the warm backend", src)
	}
	if sims := s1.Stats().Simulations + s2.Stats().Simulations; sims != 1 {
		t.Fatalf("%d simulations across backends, want 1 (cross-client dedup)", sims)
	}

	// Stream through the gateway: byte-identical to the reference frames.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + ref.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Join(append(append([][]byte{}, ref.Lines...), ref.Final), nil)
	if !bytes.Equal(streamed, want) {
		t.Fatal("gateway-proxied stream differs from local reference")
	}

	// Sweep through the gateway matches its reference too.
	sweepBody := `{"defaults":{"trials":2,"seed":3},"graphs":["star:12","cycle:10"],"protocols":["push","visitx"]}`
	sw := experiment.Sweep{Defaults: experiment.DefaultRunSpec()}
	if err := json.Unmarshal([]byte(sweepBody), &sw); err != nil {
		t.Fatal(err)
	}
	points, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sref, err := serve.ComputeSweepReference(points)
	if err != nil {
		t.Fatal(err)
	}
	wresp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	wbody, err := io.ReadAll(wresp.Body)
	wresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", wresp.StatusCode, wbody)
	}
	if !bytes.Equal(wbody, sref.Body) {
		t.Fatal("gateway-proxied sweep body differs from local reference")
	}
}
