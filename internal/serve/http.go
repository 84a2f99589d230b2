package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"rumor/internal/experiment"
)

// maxBodyBytes bounds request bodies; specs are a few hundred bytes.
const maxBodyBytes = 1 << 20

// Handler returns the HTTP API:
//
//	POST /v1/run              run (or join, or replay) one spec; ?wait=0 for async
//	POST /v1/sweep            plan + run a cross-product of specs cache-aware;
//	                          ?wait=0 for async (202 + per-point provenance)
//	GET  /v1/jobs/{id}        job or sweep status; embeds the result when done
//	GET  /v1/jobs/{id}/stream NDJSON results, replay + follow
//	GET  /v1/healthz          liveness + counters (200 while the process serves)
//	GET  /v1/readyz           readiness: 200 with queue headroom, 503 once draining
//	GET  /metrics             Prometheus text exposition
//
// Like /v1/healthz, /metrics answers 200 while the server drains — only
// intake (run/sweep submissions, via readyz for routers) is refused, so
// operators can watch a drain complete through the same scrape that
// watched the server live.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.m.reg.Handler())
	return mux
}

// errorJSON is the error body of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(errorJSON{Error: fmt.Sprintf(format, args...)})
	w.Write(append(b, '\n'))
}

// writeJSON marshals v; for pre-marshaled bodies use writeRaw so cached
// bytes stay byte-identical.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(mustMarshalLine(v))
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// decodeBody strictly decodes a single JSON object into v: unknown
// fields are rejected (a typoed knob silently meaning "default" would
// dedup against the wrong simulation), and so is trailing content (a
// concatenated second request would otherwise be dropped silently).
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decode request: unexpected content after the JSON object")
	}
	return nil
}

// decodeSpec overlays the request body onto the shared defaults and
// normalizes.
func decodeSpec(r *http.Request) (experiment.RunSpec, error) {
	spec := experiment.DefaultRunSpec()
	if err := decodeBody(r, &spec); err != nil {
		return experiment.RunSpec{}, err
	}
	return spec.Normalize()
}

// submitStatus maps a submission error to an HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// handleRun serves POST /v1/run. By default it waits for the result and
// returns the full response body — byte-identical across fresh, deduped,
// and cached service of the same normalized spec. With ?wait=0 it returns
// 202 and the job id immediately.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, j, c, src, err := s.submit(spec)
	if err != nil {
		status := submitStatus(err)
		if status == http.StatusInternalServerError {
			s.m.countInternalError()
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		writeError(w, status, "%v", err)
		return
	}
	w.Header().Set("X-Rumord-Job", id)
	w.Header().Set("X-Rumord-Source", string(src))
	if r.URL.Query().Get("wait") == "0" {
		writeJSON(w, http.StatusAccepted, jobStatusBody(id, j, c))
		return
	}
	waitAndRespond(w, r, j, c)
}

// waitAndRespond is the shared waited-request tail of /v1/run and
// /v1/sweep: wait for the in-flight job (exactly one of j and c is
// non-nil), then write the result bytes or map a failure to 422.
func waitAndRespond(w http.ResponseWriter, r *http.Request, j *Job, c *completedJob) {
	if c == nil {
		select {
		case <-j.done:
		case <-r.Context().Done():
			// Client gone; the work keeps running for other waiters and the
			// cache.
			return
		}
		resp, jerr := j.result()
		if jerr != nil {
			writeError(w, http.StatusUnprocessableEntity, "%v", jerr)
			return
		}
		writeRaw(w, http.StatusOK, resp)
		return
	}
	if c.failed() {
		writeError(w, http.StatusUnprocessableEntity, "%s", c.errMsg)
		return
	}
	writeRaw(w, http.StatusOK, c.resp)
}

// sweepPoint reports one planned point of a fresh sweep: its identity
// plus where the planner resolved it (cache/disk/dedup/run). Provenance
// is planning metadata — it varies with store temperature, so it appears
// only in the async 202 body and headers, never in the deterministic
// sweep result.
type sweepPoint struct {
	Graph    string           `json:"graph"`
	Protocol experiment.Proto `json:"protocol"`
	Seed     uint64           `json:"seed"`
	Job      string           `json:"job"`
	Source   string           `json:"source"`
}

// sweepStatus is the async (202) body of POST /v1/sweep?wait=0. The
// provenance array is named "plan" — not "points" — so it cannot shadow
// the embedded jobStatus.Points count, and the "points" key keeps one
// type (int) across every endpoint.
type sweepStatus struct {
	jobStatus
	Plan []sweepPoint `json:"plan,omitempty"` // fresh plans only
}

// handleSweep serves POST /v1/sweep: the paper's sweep shape — a list of
// graphs × protocols × seeds sharing every other knob — planned
// cache-aware: every point is probed against the store and only the
// misses are scheduled, yet the assembled response and stream are
// byte-identical to a cold sweep. By default the handler waits for the
// assembled body (like /v1/run); with ?wait=0 it responds 202 with the
// sweep job ID and per-point planning provenance.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req := experiment.Sweep{Defaults: experiment.DefaultRunSpec()}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Graphs) == 0 {
		writeError(w, http.StatusBadRequest, "sweep needs at least one graph")
		return
	}
	if err := s.checkSweepBounds(req); err != nil {
		// The cross-product cannot be scheduled as one sweep: a valid
		// request the service refuses → 422, naming the dimension to shrink.
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// Expansion is pure: a bad point rejects the sweep with zero side
	// effects.
	points, err := req.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, j, c, src, plan, err := s.submitSweep(points)
	if err != nil {
		// Scheduling has side effects; report the points resolved before
		// the rejection so the caller can track simulations already running.
		status := submitStatus(err)
		if status == http.StatusInternalServerError {
			s.m.countInternalError()
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(mustMarshalLine(struct {
			Error string       `json:"error"`
			Plan  []sweepPoint `json:"plan"`
		}{fmt.Sprintf("%v (the listed points were already resolved)", err), planProvenance(plan)}))
		return
	}
	w.Header().Set("X-Rumord-Job", id)
	w.Header().Set("X-Rumord-Source", string(src))
	if plan != nil {
		w.Header().Set("X-Rumord-Sweep-Hits", fmt.Sprint(plan.hits))
		w.Header().Set("X-Rumord-Sweep-Joined", fmt.Sprint(plan.joined))
		w.Header().Set("X-Rumord-Sweep-Scheduled", fmt.Sprint(plan.scheduled))
	}
	if r.URL.Query().Get("wait") == "0" {
		writeJSON(w, http.StatusAccepted, sweepStatus{
			jobStatus: jobStatusBody(id, j, c),
			Plan:      planProvenance(plan),
		})
		return
	}
	waitAndRespond(w, r, j, c)
}

// planProvenance renders a plan's per-point resolution for the async
// body; nil for joined/cached sweeps (their original plan already ran).
func planProvenance(plan *sweepPlan) []sweepPoint {
	if plan == nil {
		return nil
	}
	points := make([]sweepPoint, 0, len(plan.points))
	for _, pp := range plan.points {
		points = append(points, sweepPoint{
			Graph: pp.spec.Graph, Protocol: pp.spec.Protocol, Seed: pp.spec.Seed,
			Job: pp.id, Source: string(pp.src),
		})
	}
	return points
}

// jobStatus is the body of GET /v1/jobs/{id}.
type jobStatus struct {
	Job     string          `json:"job"`
	Status  jobState        `json:"status"`
	Trials  int             `json:"trials"`
	Points  int             `json:"points,omitempty"` // sweep jobs only
	Emitted int             `json:"emitted"`
	Error   string          `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// jobStatusBody renders the status of a live or completed job (exactly
// one of j and c is non-nil).
func jobStatusBody(id string, j *Job, c *completedJob) jobStatus {
	if j != nil {
		j.mu.Lock()
		st := jobStatus{Job: id, Status: j.state, Trials: j.trials, Points: j.points, Emitted: len(j.lines)}
		j.mu.Unlock()
		return st
	}
	if c.failed() {
		return jobStatus{Job: id, Status: stateFailed, Error: c.errMsg, Trials: c.trials, Points: c.points, Emitted: len(c.lines)}
	}
	return jobStatus{
		Job: id, Status: stateDone, Emitted: len(c.lines), Trials: c.trials, Points: c.points,
		Result: json.RawMessage(c.resp),
	}
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, c, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	writeJSON(w, http.StatusOK, jobStatusBody(id, j, c))
}

// handleStream serves GET /v1/jobs/{id}/stream: NDJSON frames, one per
// trial in strict trial order, closed by a terminal frame. Completed jobs
// replay their stored frames — byte-identical to what a live follower of
// the original run received.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, c, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	defer s.m.streamOpen()()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Rumord-Job", id)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	if c != nil {
		for _, line := range c.lines {
			w.Write(line)
		}
		w.Write(c.final)
		flush()
		return
	}
	next := 0
	for {
		lines, _, final, changed := j.snapshot(next)
		for _, line := range lines {
			w.Write(line)
		}
		next += len(lines)
		if len(lines) > 0 {
			flush()
		}
		if final != nil {
			w.Write(final)
			flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleHealthz serves GET /v1/healthz: liveness. It answers 200 for as
// long as the process can serve HTTP at all — including while draining,
// when the server still delivers results for accepted jobs. Routers that
// must stop sending new work before the 503s start should watch
// /v1/readyz instead.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}{"ok", s.Stats()})
}

// readyStatus is the body of GET /v1/readyz.
type readyStatus struct {
	Status   string `json:"status"` // "ready" or "draining"
	Draining bool   `json:"draining"`
	// Queue headroom: how many more jobs intake can accept before /v1/run
	// starts answering 429. A gateway can use a shrinking headroom as a
	// backpressure signal before the hard limit hits.
	QueueDepth    int `json:"queueDepth"`
	QueueCapacity int `json:"queueCapacity"`
	QueueHeadroom int `json:"queueHeadroom"`
}

// handleReadyz serves GET /v1/readyz: readiness, split from liveness so
// a draining backend is ejected by routers *before* its submissions 503.
// A ready server answers 200 with its queue headroom; a draining one
// answers 503 (with the same shape) while /v1/healthz keeps returning
// 200 for the benefit of liveness supervisors.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.QueueDepth()
	body := readyStatus{
		Status:        "ready",
		QueueDepth:    depth,
		QueueCapacity: capacity,
		QueueHeadroom: capacity - depth,
	}
	status := http.StatusOK
	if s.Draining() {
		body.Status = "draining"
		body.Draining = true
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}
