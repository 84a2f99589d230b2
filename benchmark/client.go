package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// requestTimeout bounds one request: a reply slower than this is a failed
// op, never a hang.
const requestTimeout = 30 * time.Second

type reqKind uint8

const (
	kindRun    reqKind = iota // POST /v1/run
	kindJob                   // GET /v1/jobs/{id}
	kindStream                // GET /v1/jobs/{id}/stream
	kindSweep                 // POST /v1/sweep
)

// request is one generated request and what its reply must be.
type request struct {
	kind reqKind
	path string
	body []byte // nil for GETs
	// want is the SHA-256 the checked bytes must have: the whole body,
	// or for kindJob the embedded result. Without want the reply is only
	// required to be a 200; keep then asks for its body, for a check
	// against a reference after the window.
	want *[sha256.Size]byte
	keep bool
}

// reply is what the client saw of one kept request.
type reply struct {
	req  request
	body []byte
}

// clientTally is one client's view of a window.
type clientTally struct {
	attempted, failed int
	latencies         []float64 // ms, successful requests
	overhead          []float64 // µs per request outside the round trip
	byBackend         map[string]int
	kept              []reply
	firstFailure      string
}

func (t *clientTally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

// checkReply reports whether body is what rq asked for.
func checkReply(rq request, body []byte) bool {
	if rq.want == nil {
		return true
	}
	checked := body
	if rq.kind == kindJob {
		var st struct {
			Status string          `json:"status"`
			Result json.RawMessage `json:"result"`
		}
		if json.Unmarshal(body, &st) != nil || st.Status != "done" {
			return false
		}
		// The result is embedded without the newline that ends a run body.
		checked = append(st.Result, '\n')
	}
	return sha256.Sum256(checked) == *rq.want
}

// plainClient serves the benchmark's own bookkeeping requests (readiness
// probes, /metrics scrapes); like the callers', they cannot hang.
var plainClient = &http.Client{Timeout: requestTimeout}

// newClient is one caller's HTTP client: its own single keep-alive
// connection, as a script that waits for each reply would hold.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// do sends rq to base and returns the status, headers and full body; the
// returned duration runs from writing the request to reading the last
// body byte.
func do(ctx context.Context, hc *http.Client, base, apiKey string, rq request) (int, http.Header, []byte, time.Duration, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if rq.body != nil {
		method, rd = http.MethodPost, bytes.NewReader(rq.body)
	}
	hr, err := http.NewRequestWithContext(ctx, method, base+rq.path, rd)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	if rq.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if apiKey != "" {
		hr.Header.Set("X-API-Key", apiKey)
	}
	t0 := time.Now()
	resp, err := hc.Do(hr)
	if err != nil {
		return 0, nil, nil, time.Since(t0), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, body, time.Since(t0), err
}

// runClients is the closed-loop load generator: clients callers, each
// sending its next request only after the previous reply, until d has
// passed. next(c, i) is client c's i-th request; it must be deterministic
// and safe to call from client c's goroutine.
func runClients(ctx context.Context, base string, clients int, d time.Duration, next func(c, i int) request, tr *tracer) []clientTally {
	tallies := make([]clientTally, clients)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[c]
			t.byBackend = map[string]int{}
			hc := newClient()
			defer hc.CloseIdleConnections()
			key := fmt.Sprintf("client-%d", c)
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				it0 := time.Now()
				rq := next(c, i)
				sp := tr.begin("round trip via gateway", "client", -1, i*clients+c)
				status, hdr, body, lat, err := do(ctx, hc, base, key, rq)
				tr.end(sp)
				t.attempted++
				switch {
				case err != nil:
					t.fail("%s: %v", rq.path, err)
				case status != http.StatusOK:
					t.fail("%s: status %d: %s", rq.path, status, bytes.TrimSpace(body))
				case !checkReply(rq, body):
					t.fail("%s: reply bytes differ from the verified warm-up reply", rq.path)
				default:
					t.latencies = append(t.latencies, float64(lat)/1e6)
					t.byBackend[hdr.Get("X-Rumorgw-Backend")]++
					if rq.keep {
						t.kept = append(t.kept, reply{rq, body})
					}
				}
				t.overhead = append(t.overhead, float64(time.Since(it0)-lat)/1e3)
			}
		}()
	}
	wg.Wait()
	return tallies
}
