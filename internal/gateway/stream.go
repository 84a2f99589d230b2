package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
)

// terminalPrefix identifies the terminal NDJSON frame of a job stream
// (serve.streamFinal marshals Done first). Everything before it is a
// deterministic, strictly-ordered frame sequence — the property stream
// resume leans on.
var terminalPrefix = []byte(`{"done":true`)

// streamState tracks one client's stream across backend attempts.
type streamState struct {
	id        string
	delivered int  // frames already written to the client
	headerOut bool // response header written (commits us to 200)
	finished  bool // terminal frame delivered
	// keep reports whether the frames written so far are collected in
	// frames, to be held once the stream ends done without an error.
	keep   bool
	frames []byte
}

// handleStream serves GET /v1/jobs/{id}/stream: from the held stream
// when there is one, else by proxy. Frames for a given job are
// byte-identical wherever and whenever it runs, so the gateway can
// survive a backend dying mid-stream: fail over to the next ring node,
// re-create the job there if needed from the remembered request
// (resume-by-rerun), skip the frames the client already has, and keep
// going — the client sees one seamless, complete stream. A complete
// stream of a job submitted through this gateway is held, unless its
// terminal frame reports an error.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	defer g.m.timeRoute("stream")()
	id := r.PathValue("id")
	e, known := g.specs.Get(id)
	if e.stream != nil {
		g.writeHeld(w, id, "application/x-ndjson", e.stream)
		return
	}
	g.requests.Add(1)
	cands, down := g.candidates(id)
	if len(cands) == 0 {
		g.shed.Add(1)
		w.Header().Set("Retry-After", g.shedRetryAfter())
		writeError(w, http.StatusServiceUnavailable,
			"all %d ring backends for this key are unhealthy; retry after the next health sweep", down)
		return
	}
	st := &streamState{id: id, keep: known}
	ctx := r.Context()
	// Streams may legitimately need to visit every backend (404 walk) and
	// then retry; bound total attempts by attempts tries per candidate.
	maxTries := g.opts.attempts() * len(cands)
	misses := 0
	backoffs := 0
	for try := 0; try < maxTries && ctx.Err() == nil; try++ {
		b := cands[try%len(cands)]
		if try > 0 {
			g.retries.Add(1)
			if cands[(try-1)%len(cands)] != b {
				g.failovers.Add(1)
			}
		}
		status := g.streamOnce(ctx, b, w, st)
		switch {
		case st.finished:
			if try > 0 && st.delivered > 0 {
				g.streamResumes.Add(1)
			}
			return
		case status == http.StatusNotFound:
			// The backend is healthy but lacks the job — it restarted, or
			// never saw it. Re-create it from the remembered request and
			// stream again; failing that, walk on (it may live elsewhere).
			if g.rerun(ctx, b, st.id) {
				g.streamReruns.Add(1)
				g.streamOnce(ctx, b, w, st)
				if st.finished {
					g.streamResumes.Add(1)
					return
				}
			} else {
				misses++
				if misses >= len(cands) && !st.headerOut {
					writeError(w, http.StatusNotFound, "unknown job %s on every backend", st.id)
					return
				}
				continue // a 404 walk costs no backoff
			}
		}
		// Transport failure or retryable status: back off before the next
		// candidate unless the client is gone.
		if !sleep(ctx, g.backoff(min(backoffs, 8))) {
			return
		}
		backoffs++
	}
	if !st.headerOut {
		g.exhausted.Add(1)
		writeError(w, http.StatusBadGateway,
			"no backend could serve the stream after %d attempts", maxTries)
	}
	// Past the header there is no way to signal failure in-band; the
	// missing terminal frame tells the client the stream is truncated.
}

// streamOnce attaches to b's stream of st.id, skips the frames the
// client already holds, and relays the rest. It returns the HTTP status
// of the attempt (0 on transport error); st records progress.
func (g *Gateway) streamOnce(ctx context.Context, b *backend, w http.ResponseWriter, st *streamState) int {
	req, err := http.NewRequestWithContext(ctx, "GET", b.url+"/v1/jobs/"+st.id+"/stream", nil)
	if err != nil {
		b.noteFailure(g.opts.ejectAfter())
		return 0
	}
	resp, err := g.client.Do(req)
	if err != nil {
		b.noteFailure(g.opts.ejectAfter())
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drainBody(resp)
		if resp.StatusCode == http.StatusNotFound {
			b.noteSuccess(g.opts.readmitAfter())
		} else {
			b.noteFailure(g.opts.ejectAfter())
		}
		return resp.StatusCode
	}
	b.noteSuccess(g.opts.readmitAfter())
	flusher, _ := w.(http.Flusher)
	rd := bufio.NewReader(resp.Body)
	skip := st.delivered
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			// Includes EOF before the terminal frame (the backend died) and
			// a trailing partial line, which is dropped: the next attempt
			// re-reads the full frame, so the client only ever sees whole,
			// byte-exact frames.
			b.noteFailure(g.opts.ejectAfter())
			return 0
		}
		if skip > 0 {
			skip--
			continue
		}
		if !st.headerOut {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Rumord-Job", st.id)
			w.Header().Set("X-Rumorgw-Backend", b.addr)
			w.WriteHeader(http.StatusOK)
			st.headerOut = true
		}
		if _, err := w.Write(line); err != nil {
			return http.StatusOK // client gone; ctx will report it
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.keep {
			st.frames = append(st.frames, line...)
			if st.keep = len(st.frames) <= maxHeldBytes; !st.keep {
				st.frames = nil
			}
		}
		if bytes.HasPrefix(line, terminalPrefix) {
			st.finished = true
			if st.keep && cleanFinish(line) {
				g.hold(st.id, st.frames, streamSlot)
			}
			return http.StatusOK
		}
		st.delivered++
	}
}

// cleanFinish reports whether a terminal frame ends its stream done
// without an error: only such a stream is the job's final one.
func cleanFinish(final []byte) bool {
	var f struct {
		Error string `json:"error"`
	}
	return json.Unmarshal(final, &f) == nil && f.Error == ""
}

// rerun re-creates job id on b by replaying the remembered original
// request with ?wait=0 — safe because the job is content-addressed and
// deterministic: however many times it runs, its bytes are the same.
func (g *Gateway) rerun(ctx context.Context, b *backend, id string) bool {
	e, ok := g.specs.Get(id)
	if !ok {
		return false
	}
	resp, err := g.once(ctx, b, "POST", e.path, "wait=0", e.body)
	if err != nil {
		b.noteFailure(g.opts.ejectAfter())
		return false
	}
	return resp.status < 300
}
