package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rumor/internal/stats"
)

// postAsync submits to path with ?wait=0 semantics so held jobs do not
// pin client goroutines.
func postAsync(t *testing.T, ts *httptest.Server, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
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

func checkRetryAfter(t *testing.T, hdr http.Header, what string) {
	t.Helper()
	ra := hdr.Get("Retry-After")
	if ra == "" {
		t.Fatalf("%s carries no Retry-After header", what)
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("%s Retry-After = %q, want an integer >= 1", what, ra)
	}
}

// TestQueueFull429CarriesRetryAfter pins the regression: a queue-full
// rejection must tell the client when to come back. With one worker held
// at the gate and a one-slot queue occupied, the third submission 429s —
// and the header must be present, parseable, and >= 1 on both the run
// and sweep endpoints.
func TestQueueFull429CarriesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueSize: 1})
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s.lifecycle.Lock()
	s.testRunGate = func(*Job) { entered <- struct{}{}; <-release }
	s.lifecycle.Unlock()
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	// First job: picked up by the worker, held at the gate.
	code, _, body := postAsync(t, ts, "/v1/run?wait=0", `{"graph":"star:16","protocol":"push","trials":2,"seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: %d %s", code, body)
	}
	<-entered // the worker owns it; the queue slot is free again

	// Second job: sits in the one-slot queue.
	code, _, body = postAsync(t, ts, "/v1/run?wait=0", `{"graph":"star:16","protocol":"push","trials":2,"seed":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submission: %d %s", code, body)
	}

	// Third job: the queue is full — 429 with a wait hint.
	code, hdr, body := postAsync(t, ts, "/v1/run?wait=0", `{"graph":"star:16","protocol":"push","trials":2,"seed":3}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submission: %d %s, want 429", code, body)
	}
	checkRetryAfter(t, hdr, "run 429")

	// The sweep endpoint shares the queue and must carry the hint too.
	code, hdr, body = postAsync(t, ts, "/v1/sweep?wait=0",
		`{"defaults":{"trials":2,"seed":4},"graphs":["star:16"],"protocols":["push"]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("sweep while full: %d %s, want 429", code, body)
	}
	checkRetryAfter(t, hdr, "sweep 429")

	// With completions observed, the hint derives from the drain rate:
	// 5 completions over the trailing 10s window is 0.5/s; one job queued
	// ahead of a retry (the gated one has not reached running yet) means
	// ceil((1+1)/0.5) = 4 seconds.
	now := time.Now()
	s.drainMu.Lock()
	s.drain = stats.RateRing{}
	for i := 0; i < 5; i++ {
		s.drain.Note(now.Add(-time.Duration(i) * time.Second))
	}
	s.drainMu.Unlock()
	if got := s.retryAfterSeconds(); got != 4 {
		t.Fatalf("drain-derived retryAfterSeconds = %d, want 4 (0.5/s rate, 1 queued)", got)
	}

	released = true
	close(release)
	waitUntil(t, "held jobs to finish", func() bool { return s.Stats().JobsLive == 0 })
	// Idle server draining fast: the clamp floor keeps the hint at 1.
	s.drainMu.Lock()
	s.drain = stats.RateRing{}
	for i := 0; i < 40; i++ {
		s.drain.Note(time.Now())
	}
	s.drainMu.Unlock()
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle retryAfterSeconds = %d, want clamp floor 1", got)
	}
}
