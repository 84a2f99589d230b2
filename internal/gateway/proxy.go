package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"rumor/internal/admission"
	"rumor/internal/experiment"
	"rumor/internal/serve"
)

// maxBodyBytes bounds gateway request bodies, matching the backends.
const maxBodyBytes = 1 << 20

type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(v)
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// drainBody discards and closes a response body so the transport can
// reuse the connection.
func drainBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// bufferedResponse is one fully-read backend response: safe to retry
// before it exists, safe to replay to the client once it does.
type bufferedResponse struct {
	status  int
	header  http.Header
	body    []byte
	backend string
}

// retryable reports whether a response status means "another attempt may
// do better": 5xx (backend broken or draining) and 429 (this backend's
// queue is full — the same deterministic job can run anywhere else).
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// backoff returns the jittered sleep before retry number k (0-based):
// uniform in [base·2ᵏ/2, base·2ᵏ], capped at max. The deterministic
// lower half gives tests a timing bound; the jittered upper half keeps
// a thundering herd of gateways from synchronizing their retries.
func (g *Gateway) backoff(k int) time.Duration {
	d := g.opts.backoffBase() << uint(k)
	if max := g.opts.backoffMax(); d > max || d <= 0 {
		d = max
	}
	half := d / 2
	return half + rand.N(d-half+1)
}

// sleep waits d or until ctx is done; reports false when ctx won.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// proxyPolicy tunes attemptProxy per endpoint.
type proxyPolicy struct {
	attempts int
	// spread404 treats a 404 as "ask the next backend" without burning a
	// retry attempt, a backoff sleep, or the backend's health: job lookups
	// legitimately 404 on every backend that never ran the job.
	spread404 bool
}

// attemptProxy runs one buffered request against cands in order, with
// bounded retries, exponential backoff + jitter, and failover. It
// returns the first conclusive response — any 2xx/3xx/4xx (except 429,
// and except 404 under spread404 until every candidate has 404ed) — or
// nil with the last error once attempts are exhausted.
func (g *Gateway) attemptProxy(ctx context.Context, cands []*backend, method, path, rawQuery string, body []byte, pol proxyPolicy) (*bufferedResponse, error) {
	var lastErr error
	var last404, last429 *bufferedResponse
	misses := 0
	retriesUsed := 0
	var prev *backend
	for i := 0; ; i++ {
		if misses >= len(cands) && pol.spread404 && last404 != nil {
			return last404, nil // every backend says 404: that IS the answer
		}
		if retriesUsed >= pol.attempts {
			break
		}
		b := cands[i%len(cands)]
		if i > 0 && prev != b {
			g.failovers.Add(1)
		}
		prev = b
		b.proxyReqs.Add(1)
		resp, err := g.once(ctx, b, method, path, rawQuery, body)
		if err != nil || (resp != nil && resp.status >= 500) {
			b.proxyFails.Add(1)
		}
		switch {
		case err != nil:
			b.noteFailure(g.opts.ejectAfter())
			lastErr = err
		case pol.spread404 && resp.status == http.StatusNotFound:
			b.noteSuccess(g.opts.readmitAfter()) // the backend answered; it just lacks the job
			last404 = resp
			misses++
			continue // no backoff, no attempt burned: keep walking the ring
		case retryable(resp.status):
			if resp.status == http.StatusTooManyRequests {
				// The backend just declared its queue full: zero its headroom
				// now instead of waiting for the next probe, and keep the
				// response — if every attempt 429s, the client should see the
				// backend's honest 429, not a synthetic 502.
				b.headroom.Store(0)
				last429 = resp
			} else {
				b.noteFailure(g.opts.ejectAfter())
			}
			lastErr = fmt.Errorf("backend %s answered %d", b.addr, resp.status)
		default:
			b.noteSuccess(g.opts.readmitAfter())
			return resp, nil
		}
		retriesUsed++
		if retriesUsed >= pol.attempts {
			break
		}
		g.retries.Add(1)
		if !sleep(ctx, g.backoff(retriesUsed-1)) {
			return nil, ctx.Err()
		}
	}
	if last429 != nil {
		return last429, nil // every retry bounced off a full queue: pass it through
	}
	if lastErr == nil && last404 != nil {
		return last404, nil
	}
	return nil, lastErr
}

// once performs a single buffered attempt against b under the per-try
// timeout. Reading the body is part of the attempt: a backend that dies
// mid-body fails here, before anything reached the client, so the
// attempt is still retryable.
func (g *Gateway) once(ctx context.Context, b *backend, method, path, rawQuery string, body []byte) (*bufferedResponse, error) {
	tryCtx, cancel := context.WithTimeout(ctx, g.opts.perTryTimeout())
	defer cancel()
	url := b.url + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(tryCtx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read backend %s response: %w", b.addr, err)
	}
	return &bufferedResponse{status: resp.StatusCode, header: resp.Header.Clone(), body: payload, backend: b.addr}, nil
}

// retryAfterSecs renders a wait hint as a Retry-After header value in
// whole seconds, rounded up, never below 1.
func retryAfterSecs(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// shedRetryAfter is the Retry-After value for load-shed 503s: derived
// from the admission controller's observed drain rate (how long the
// work ahead of a new arrival needs to clear), falling back to the
// health-sweep cadence before any drain has been seen.
func (g *Gateway) shedRetryAfter() string {
	return retryAfterSecs(g.adm.RetryAfter())
}

// admit runs one submission through the admission controller. When the
// request may proceed it returns its release closure and true; otherwise
// it has already written the throttle/shed response (or nothing, for a
// client that gave up while queued) and returns false.
func (g *Gateway) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	dec := g.adm.Acquire(r.Context(), r.Header.Get(admission.KeyHeader), r.RemoteAddr)
	switch dec.Outcome {
	case admission.Throttled:
		w.Header().Set("Retry-After", retryAfterSecs(dec.RetryAfter))
		writeError(w, http.StatusTooManyRequests,
			"client %s over its %s quota; retry after the indicated wait", dec.Class, dec.Reason)
		return nil, false
	case admission.Shed:
		w.Header().Set("Retry-After", retryAfterSecs(dec.RetryAfter))
		writeError(w, http.StatusServiceUnavailable,
			"gateway saturated (%s); retry after the indicated wait", dec.Reason)
		return nil, false
	case admission.Canceled:
		// The client hung up while fair-queued; nothing to write.
		return nil, false
	}
	return dec.Release, true
}

// proxyBuffered routes one buffered request keyed by key: candidate
// selection, load shedding, retry loop, and response replay. It returns
// the backend response it replayed, or nil when it answered with its own
// 502/503.
func (g *Gateway) proxyBuffered(w http.ResponseWriter, r *http.Request, key, path string, body []byte, pol proxyPolicy) *bufferedResponse {
	g.requests.Add(1)
	cands, down := g.candidates(key)
	if len(cands) == 0 {
		g.shed.Add(1)
		w.Header().Set("Retry-After", g.shedRetryAfter())
		writeError(w, http.StatusServiceUnavailable,
			"all %d ring backends for this key are unhealthy; retry after the next health sweep", down)
		return nil
	}
	resp, err := g.attemptProxy(r.Context(), cands, r.Method, path, r.URL.RawQuery, body, pol)
	if err != nil {
		g.exhausted.Add(1)
		writeError(w, http.StatusBadGateway,
			"no backend could serve the request after %d attempts: %v", pol.attempts, err)
		return nil
	}
	if resp.status == http.StatusTooManyRequests && resp.header.Get("Retry-After") == "" {
		// Backstop for backends that 429 without a hint: the gateway's
		// drain estimate is the best honesty available.
		resp.header.Set("Retry-After", g.shedRetryAfter())
	}
	replay(w, resp)
	return resp
}

// storeReplay reports whether resp is a backend replaying a finished job
// from one of its stores: a 200 whose X-Rumord-Source is cache, disk or
// dedup. Only such replies are held — a job seen a second time — so a
// spec asked for once costs the gateway no memory beyond its request.
func storeReplay(resp *bufferedResponse) bool {
	if resp == nil || resp.status != http.StatusOK {
		return false
	}
	switch resp.header.Get("X-Rumord-Source") {
	case "cache", "disk", "dedup":
		return true
	}
	return false
}

// submit routes one run or sweep submission keyed by its job ID. It
// passes admission first, so quotas, fair queueing and the conservation
// law cover every reply. A waited request for a held ID is then answered
// from memory; anything else is remembered for stream rerun and proxied,
// and a waited reply the backend replayed from a store is held.
func (g *Gateway) submit(w http.ResponseWriter, r *http.Request, id, path string, body []byte) {
	release, ok := g.admit(w, r)
	if !ok {
		return
	}
	defer release()
	waited := r.URL.Query().Get("wait") != "0"
	if e, _ := g.specs.Get(id); waited && e.resp != nil {
		g.writeHeld(w, id, "application/json", e.resp)
		return
	}
	g.remember(id, path, body)
	resp := g.proxyBuffered(w, r, id, path, body, proxyPolicy{attempts: g.opts.attempts()})
	if waited && storeReplay(resp) {
		g.hold(id, resp.body, respSlot)
	}
}

// replay writes a buffered backend response to the client, tagging which
// backend served it.
func replay(w http.ResponseWriter, resp *bufferedResponse) {
	for k, vs := range resp.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Rumorgw-Backend", resp.backend)
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// readBody reads and bounds the request body.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read request: %w", err)
	}
	if len(body) > maxBodyBytes {
		return nil, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	}
	return body, nil
}

// decodeStrict decodes one JSON object, rejecting unknown fields and
// trailing content — the backends' contract, enforced here too so a
// malformed request costs a 400, not a retry budget.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decode request: unexpected content after the JSON object")
	}
	return nil
}

// handleRun serves POST /v1/run: derive the job ID the backend will
// derive and submit the request under it.
func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	defer g.m.timeRoute("run")()
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec := experiment.DefaultRunSpec()
	if err := decodeStrict(body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	norm, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g.submit(w, r, serve.JobID(norm), "/v1/run", body)
}

// handleSweep serves POST /v1/sweep, keyed by the sweep job ID so the
// whole sweep — and every poll or stream of it — lands on one backend.
func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	defer g.m.timeRoute("sweep")()
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sw := experiment.Sweep{Defaults: experiment.DefaultRunSpec()}
	if err := decodeStrict(body, &sw); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(sw.Graphs) == 0 {
		writeError(w, http.StatusBadRequest, "sweep needs at least one graph")
		return
	}
	points, err := sw.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g.submit(w, r, serve.SweepJobID(points), "/v1/sweep", body)
}

// handleJob serves GET /v1/jobs/{id}: from the held poll when there is
// one, else by proxy. The ring makes the job's owner the first candidate,
// but a job may live elsewhere (it predates a ring change, or a failover
// re-ran it), so 404s walk the whole ring before the gateway reports one.
// A final poll of a job submitted through this gateway is held.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	defer g.m.timeRoute("job")()
	id := r.PathValue("id")
	e, known := g.specs.Get(id)
	if e.poll != nil {
		g.writeHeld(w, id, "application/json", e.poll)
		return
	}
	resp := g.proxyBuffered(w, r, id, "/v1/jobs/"+id, nil, proxyPolicy{
		attempts:  g.opts.attempts(),
		spread404: true,
	})
	if known && finalPoll(resp) {
		g.hold(id, resp.body, pollSlot)
	}
}

// finalPoll reports whether resp is a poll body that can no longer
// change: a 200 whose status is "done" and which embeds the result. A
// poll that races the job's move into the backend's store reports done
// without the result, and is not final.
func finalPoll(resp *bufferedResponse) bool {
	if resp == nil || resp.status != http.StatusOK {
		return false
	}
	var st struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	return json.Unmarshal(resp.body, &st) == nil && st.Status == "done" && len(st.Result) > 0
}
