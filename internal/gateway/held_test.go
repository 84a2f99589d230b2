package gateway

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
	"sync/atomic"
	"testing"
	"time"

	"rumor/internal/admission"
	"rumor/internal/experiment"
	"rumor/internal/serve"
)

// heldBody, heldPoll and heldStream are what heldStub answers a waited
// submission, a poll and a stream with: a finished job's replies.
const (
	heldBody   = `{"held":"body"}` + "\n"
	heldPoll   = `{"job":"j","status":"done","trials":1,"emitted":1,"result":{"held":"body"}}` + "\n"
	heldStream = `{"trial":0,"rounds":3}` + "\n" + `{"done":true,"job":"j","trials":1}` + "\n"
)

// heldStub is a backend that answers every waited POST with a fixed
// status and X-Rumord-Source, every ?wait=0 POST with a 202, and a job's
// poll and stream as a finished job's.
type heldStub struct {
	ts      *httptest.Server
	waited  atomic.Int64 // waited POSTs seen
	async   atomic.Int64 // ?wait=0 POSTs seen
	polls   atomic.Int64 // GET /v1/jobs/{id} seen
	streams atomic.Int64 // GET /v1/jobs/{id}/stream seen
}

func newHeldStub(t *testing.T, status int, src string) *heldStub {
	t.Helper()
	sb := &heldStub{}
	sb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		switch {
		case r.Method == "GET" && strings.HasSuffix(r.URL.Path, "/stream"):
			sb.streams.Add(1)
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write([]byte(heldStream))
			return
		case r.Method == "GET":
			sb.polls.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(heldPoll))
			return
		}
		if src != "" {
			w.Header().Set("X-Rumord-Source", src)
		}
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("wait") == "0" {
			sb.async.Add(1)
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"status":"queued"}` + "\n"))
			return
		}
		sb.waited.Add(1)
		w.WriteHeader(status)
		if status == http.StatusOK {
			w.Write([]byte(heldBody))
		} else {
			w.Write([]byte(`{"error":"scripted"}` + "\n"))
		}
	}))
	t.Cleanup(sb.ts.Close)
	return sb
}

// submitTo POSTs body to the gateway at url+path under an optional API
// key and returns status, headers and body.
func submitTo(t *testing.T, url, path, key, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(admission.KeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
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

// getFrom GETs url and returns status, headers and body.
func getFrom(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// runJobID is the job ID the gateway derives for a /v1/run body.
func runJobID(t *testing.T, body string) string {
	t.Helper()
	spec := experiment.DefaultRunSpec()
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return serve.JobID(norm)
}

// heldReply fetches the reply held for id, nil when none is.
func heldReply(g *Gateway, id string) []byte {
	s, _ := g.specs.Get(id)
	return s.resp
}

// checkHeldHeaders pins a held reply's headers: its content type, the
// job and the held source, and nothing that would name a backend which
// never saw it.
func checkHeldHeaders(t *testing.T, hdr http.Header, id, ctype string) {
	t.Helper()
	if got := hdr.Get("X-Rumorgw-Source"); got != "held" {
		t.Fatalf("X-Rumorgw-Source = %q, want held", got)
	}
	if got := hdr.Get("X-Rumord-Job"); got != id {
		t.Fatalf("X-Rumord-Job = %q, want %s", got, id)
	}
	if got := hdr.Get("Content-Type"); got != ctype {
		t.Fatalf("Content-Type = %q, want %s", got, ctype)
	}
	for _, h := range []string{"X-Rumorgw-Backend", "X-Rumord-Source"} {
		if v, ok := hdr[h]; ok {
			t.Fatalf("held reply carries %s: %v (no backend served it)", h, v)
		}
	}
}

// heldJob is one job of the real-backend held tests: how to submit it
// and its locally computed reference reply.
type heldJob struct {
	name, path, body string
	ref              func(t *testing.T) serve.Reference
}

// heldJobs are a run and a sweep.
func heldJobs() []heldJob {
	sweepBody := `{"defaults":{"trials":2,"seed":3},"graphs":["star:12","cycle:10"],"protocols":["push","visitx"]}`
	return []heldJob{
		{"run", "/v1/run", specBody, func(t *testing.T) serve.Reference {
			spec := experiment.DefaultRunSpec()
			if err := json.Unmarshal([]byte(specBody), &spec); err != nil {
				t.Fatal(err)
			}
			ref, err := serve.ComputeReference(spec)
			if err != nil {
				t.Fatal(err)
			}
			return ref
		}},
		{"sweep", "/v1/sweep", sweepBody, func(t *testing.T) serve.Reference {
			sw := experiment.Sweep{Defaults: experiment.DefaultRunSpec()}
			if err := json.Unmarshal([]byte(sweepBody), &sw); err != nil {
				t.Fatal(err)
			}
			points, err := sw.Expand()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := serve.ComputeSweepReference(points)
			if err != nil {
				t.Fatal(err)
			}
			return ref
		}},
	}
}

// realStack starts a gateway in front of two real backends. hits counts
// every HTTP request that reaches either backend.
func realStack(t *testing.T) (g *Gateway, gwURL string, hits *atomic.Int64) {
	t.Helper()
	hits = new(atomic.Int64)
	var addrs []string
	for range 2 {
		s, err := serve.New(serve.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		addrs = append(addrs, hostPort(t, ts.URL))
	}
	g = newGateway(t, Options{Backends: addrs})
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)
	return g, gw.URL, hits
}

// TestHeldOnSecondSight walks one run and one sweep through two real
// backends: the first reply (a simulation) is not held, the second (a
// cache replay) is, and the third is answered by the gateway alone — no
// request reaches a backend — with the reference bytes.
func TestHeldOnSecondSight(t *testing.T) {
	for _, tc := range heldJobs() {
		t.Run(tc.name, func(t *testing.T) {
			g, gwURL, hits := realStack(t)
			ref := tc.ref(t)

			for i, want := range []string{"run", "cache"} {
				code, hdr, body := submitTo(t, gwURL, tc.path, "", tc.body)
				if code != http.StatusOK || !bytes.Equal(body, ref.Body) {
					t.Fatalf("reply %d: status %d, body equal to reference: %v", i+1, code, bytes.Equal(body, ref.Body))
				}
				if src := hdr.Get("X-Rumord-Source"); src != want {
					t.Fatalf("reply %d: X-Rumord-Source %q, want %q", i+1, src, want)
				}
				if hdr.Get("X-Rumorgw-Backend") == "" {
					t.Fatalf("reply %d: proxied reply without X-Rumorgw-Backend", i+1)
				}
				if held := heldReply(g, ref.ID) != nil; held != (i == 1) {
					t.Fatalf("after reply %d (source %s): held = %v", i+1, want, held)
				}
			}
			if !bytes.Equal(heldReply(g, ref.ID), ref.Body) {
				t.Fatal("held bytes differ from the reference")
			}

			before, proxied := hits.Load(), g.requests.Load()
			code, hdr, body := submitTo(t, gwURL, tc.path, "", tc.body)
			if code != http.StatusOK || !bytes.Equal(body, ref.Body) {
				t.Fatalf("held reply: status %d, body equal to reference: %v", code, bytes.Equal(body, ref.Body))
			}
			checkHeldHeaders(t, hdr, ref.ID, "application/json")
			if after := hits.Load(); after != before {
				t.Fatalf("held reply reached a backend: requests %d -> %d", before, after)
			}
			if got := g.requests.Load(); got != proxied {
				t.Fatalf("held reply counted as proxied: requests %d -> %d", proxied, got)
			}
			if got := g.held.Load(); got != 1 {
				t.Fatalf("held = %d, want 1", got)
			}
		})
	}
}

// TestHeldPollsAndStreams: after one waited submission of a run or a
// sweep, the first poll and the first stream of the job are proxied and
// held, and the second of each is answered by the gateway alone, with the
// bytes the owning backend answers when asked directly — which carry the
// reference result and frames.
func TestHeldPollsAndStreams(t *testing.T) {
	for _, tc := range heldJobs() {
		t.Run(tc.name, func(t *testing.T) {
			g, gwURL, hits := realStack(t)
			ref := tc.ref(t)
			code, hdr, body := submitTo(t, gwURL, tc.path, "", tc.body)
			if code != http.StatusOK || !bytes.Equal(body, ref.Body) {
				t.Fatalf("submission: status %d, body equal to reference: %v", code, bytes.Equal(body, ref.Body))
			}
			owner := "http://" + hdr.Get("X-Rumorgw-Backend")

			for _, rd := range []struct {
				name, suffix, ctype string
				slot                func(*jobEntry) *[]byte
			}{
				{"poll", "", "application/json", pollSlot},
				{"stream", "/stream", "application/x-ndjson", streamSlot},
			} {
				path := "/v1/jobs/" + ref.ID + rd.suffix
				code, _, direct := getFrom(t, owner+path)
				if code != http.StatusOK {
					t.Fatalf("%s from the owner: status %d", rd.name, code)
				}
				code, hdr, first := getFrom(t, gwURL+path)
				if code != http.StatusOK || !bytes.Equal(first, direct) {
					t.Fatalf("first %s: status %d, equal to the backend's reply: %v", rd.name, code, bytes.Equal(first, direct))
				}
				if hdr.Get("X-Rumorgw-Source") != "" || hdr.Get("X-Rumorgw-Backend") == "" {
					t.Fatalf("first %s was not proxied: %v", rd.name, hdr)
				}
				e, _ := g.specs.Get(ref.ID)
				if !bytes.Equal(*rd.slot(&e), direct) {
					t.Fatalf("the %s held differs from the backend's reply", rd.name)
				}

				before, proxied, held := hits.Load(), g.requests.Load(), g.held.Load()
				code, hdr, second := getFrom(t, gwURL+path)
				if code != http.StatusOK || !bytes.Equal(second, direct) {
					t.Fatalf("held %s: status %d, equal to the backend's reply: %v", rd.name, code, bytes.Equal(second, direct))
				}
				checkHeldHeaders(t, hdr, ref.ID, rd.ctype)
				if hits.Load() != before || g.requests.Load() != proxied || g.held.Load() != held+1 {
					t.Fatalf("held %s: backend hits %d -> %d, proxied %d -> %d, held %d -> %d; want a hop-free held reply",
						rd.name, before, hits.Load(), proxied, g.requests.Load(), held, g.held.Load())
				}
			}

			e, _ := g.specs.Get(ref.ID)
			var poll struct {
				Status string          `json:"status"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(e.poll, &poll); err != nil || poll.Status != "done" ||
				!bytes.Equal(append(poll.Result, '\n'), ref.Body) {
				t.Fatalf("held poll does not embed the reference result (status %q, err %v)", poll.Status, err)
			}
			if want := append(bytes.Join(ref.Lines, nil), ref.Final...); !bytes.Equal(e.stream, want) {
				t.Fatal("held stream differs from the reference frames")
			}
		})
	}
}

// TestHeldWaitZero: a ?wait=0 submission is always proxied — it wants the
// backend's 202 — and never replaces the held reply for its ID, whether it
// comes before or after the reply was held.
func TestHeldWaitZero(t *testing.T) {
	sb := newHeldStub(t, http.StatusOK, "cache")
	g := newGateway(t, Options{Backends: []string{hostPort(t, sb.ts.URL)}})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	id := runJobID(t, specBody)

	async := func(n int64) {
		t.Helper()
		code, hdr, _ := submitTo(t, gw.URL, "/v1/run?wait=0", "", specBody)
		if code != http.StatusAccepted || hdr.Get("X-Rumorgw-Source") != "" || hdr.Get("X-Rumorgw-Backend") == "" {
			t.Fatalf("?wait=0: status %d, X-Rumorgw-Source %q, backend %q; want a proxied 202",
				code, hdr.Get("X-Rumorgw-Source"), hdr.Get("X-Rumorgw-Backend"))
		}
		if got := sb.async.Load(); got != n {
			t.Fatalf("backend saw %d ?wait=0 POSTs, want %d", got, n)
		}
	}
	async(1)
	if heldReply(g, id) != nil {
		t.Fatal("a 202 was held")
	}
	if code, _, body := submitTo(t, gw.URL, "/v1/run", "", specBody); code != http.StatusOK || string(body) != heldBody {
		t.Fatalf("waited: %d %q", code, body)
	}
	if string(heldReply(g, id)) != heldBody {
		t.Fatal("a waited cache replay was not held")
	}
	async(2)
	if string(heldReply(g, id)) != heldBody {
		t.Fatal("a ?wait=0 repeat dropped the held reply")
	}
	code, hdr, body := submitTo(t, gw.URL, "/v1/run", "", specBody)
	if code != http.StatusOK || string(body) != heldBody {
		t.Fatalf("waited after ?wait=0: %d %q", code, body)
	}
	checkHeldHeaders(t, hdr, id, "application/json")
	if got := sb.waited.Load(); got != 1 {
		t.Fatalf("backend saw %d waited POSTs, want 1", got)
	}
}

// TestHeldNeverClobberedConcurrently races waited and ?wait=0
// submissions, polls and streams of one remembered ID, so the holds of
// its reply, poll and stream race each other. Once held, each stays held;
// every waited reply, poll and stream is the same bytes; each was either
// held or proxied; and no hold dropped another.
func TestHeldNeverClobberedConcurrently(t *testing.T) {
	sb := newHeldStub(t, http.StatusOK, "dedup")
	g := newGateway(t, Options{Backends: []string{hostPort(t, sb.ts.URL)}})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	id := runJobID(t, specBody)
	if code, _, _ := submitTo(t, gw.URL, "/v1/run?wait=0", "", specBody); code != http.StatusAccepted {
		t.Fatalf("remembering submission: %d", code)
	}

	const workers, each = 8, 12
	type kind struct {
		method, path string
		status       int
		want         string // "" checks only the status
	}
	kinds := []kind{
		{"POST", "/v1/run", http.StatusOK, heldBody},
		{"POST", "/v1/run?wait=0", http.StatusAccepted, ""},
		{"GET", "/v1/jobs/" + id, http.StatusOK, heldPoll},
		{"GET", "/v1/jobs/" + id + "/stream", http.StatusOK, heldStream},
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				k := kinds[(w+i)%len(kinds)]
				var resp *http.Response
				var err error
				if k.method == "POST" {
					resp, err = http.Post(gw.URL+k.path, "application/json", strings.NewReader(specBody))
				} else {
					resp, err = http.Get(gw.URL + k.path)
				}
				if err != nil {
					bad.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != k.status || (k.want != "" && string(body) != k.want) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d replies were wrong", n)
	}
	e, _ := g.specs.Get(id)
	if string(e.resp) != heldBody || string(e.poll) != heldPoll || string(e.stream) != heldStream {
		t.Fatalf("after the race: reply %q, poll %q, stream %q held; want all three", e.resp, e.poll, e.stream)
	}
	perKind := int64(workers * each / len(kinds))
	if got := sb.waited.Load() + sb.polls.Load() + sb.streams.Load() + g.held.Load(); got != 3*perKind {
		t.Fatalf("backend waited POSTs + polls + streams + held replies = %d, want %d", got, 3*perKind)
	}
	if got := sb.async.Load(); got != perKind+1 {
		t.Fatalf("backend saw %d ?wait=0 POSTs, want %d (never served from memory)", got, perKind+1)
	}

	// The holds themselves, raced directly on fresh entries: three holds of
	// different slots of one entry must all land, in every order.
	for i := range 200 {
		id := fmt.Sprintf("race-%d", i)
		g.remember(id, "/v1/run", []byte(specBody))
		var hw sync.WaitGroup
		for _, slot := range []func(*jobEntry) *[]byte{respSlot, pollSlot, streamSlot} {
			hw.Add(1)
			go func() {
				defer hw.Done()
				g.hold(id, []byte(id), slot)
			}()
		}
		hw.Wait()
		e, _ := g.specs.Get(id)
		if string(e.resp) != id || string(e.poll) != id || string(e.stream) != id || string(e.body) != specBody {
			t.Fatalf("%s: a hold was dropped: %+v", id, e)
		}
	}
}

// TestHeldNeverUnfinished: only a finished job's final replies are held.
// A queued or running poll, a poll that reports done before the result
// is in the backend's store, a failed job's poll, a stream that ends in
// an error or is cut short, a reply over maxHeldBytes, and any reply
// about an ID no submission through this gateway named are relayed every
// time, and nothing is held.
func TestHeldNeverUnfinished(t *testing.T) {
	big := strings.Repeat("x", maxHeldBytes)
	for _, tc := range []struct {
		name, suffix, reply string
		unseen              bool
	}{
		{"queued poll", "", `{"job":"j","status":"queued","trials":2,"emitted":0}` + "\n", false},
		{"running poll", "", `{"job":"j","status":"running","trials":2,"emitted":1}` + "\n", false},
		{"done poll without result", "", `{"job":"j","status":"done","trials":2,"emitted":2}` + "\n", false},
		{"failed poll", "", `{"job":"j","status":"failed","trials":2,"emitted":0,"error":"boom"}` + "\n", false},
		{"oversize poll", "", `{"job":"j","status":"done","result":"` + big + `"}` + "\n", false},
		{"unseen poll", "", heldPoll, true},
		{"error stream", "/stream", `{"trial":0,"rounds":3}` + "\n" + `{"done":true,"job":"j","error":"boom"}` + "\n", false},
		{"truncated stream", "/stream", `{"trial":0,"rounds":3}` + "\n" + `{"trial":1,"rounds":4}` + "\n", false},
		{"oversize stream", "/stream", `{"trial":"` + big + `"}` + "\n" + `{"done":true,"job":"j","trials":1}` + "\n", false},
		{"unseen stream", "/stream", heldStream, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var gets atomic.Int64
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				if r.Method == "POST" {
					w.WriteHeader(http.StatusAccepted)
					w.Write([]byte(`{"status":"queued"}` + "\n"))
					return
				}
				gets.Add(1)
				w.Write([]byte(tc.reply))
			}))
			defer backend.Close()
			g := newGateway(t, Options{
				Backends:    []string{hostPort(t, backend.URL)},
				Attempts:    1,
				EjectAfter:  100,
				BackoffBase: time.Millisecond,
			})
			gw := httptest.NewServer(g.Handler())
			defer gw.Close()
			id := runJobID(t, specBody)
			if !tc.unseen {
				if code, _, _ := submitTo(t, gw.URL, "/v1/run?wait=0", "", specBody); code != http.StatusAccepted {
					t.Fatalf("remembering submission: %d", code)
				}
			}

			for i := range 2 {
				code, hdr, body := getFrom(t, gw.URL+"/v1/jobs/"+id+tc.suffix)
				if code != http.StatusOK || string(body) != tc.reply {
					t.Fatalf("read %d: status %d, relayed the backend's bytes: %v", i+1, code, string(body) == tc.reply)
				}
				if hdr.Get("X-Rumorgw-Source") != "" {
					t.Fatalf("read %d answered from memory", i+1)
				}
			}
			if got := gets.Load(); got != 2 {
				t.Fatalf("backend saw %d of 2 reads", got)
			}
			e, known := g.specs.Get(id)
			if known == tc.unseen || e.poll != nil || e.stream != nil || g.held.Load() != 0 {
				t.Fatalf("remembered %v (want %v), poll %d bytes, stream %d bytes, held %d; want nothing held",
					known, !tc.unseen, len(e.poll), len(e.stream), g.held.Load())
			}
		})
	}
}

// TestHeldOnlyStoreReplays: a reply is held only when it is a 200 a
// backend replayed from a store. Fresh runs, unlabelled 200s, and 422,
// 429 and 503 bodies — even ones labelled cache — are never held, so
// every repeat reaches the backend.
func TestHeldOnlyStoreReplays(t *testing.T) {
	for _, tc := range []struct {
		status int
		src    string
	}{
		{http.StatusOK, "run"},
		{http.StatusOK, ""},
		{http.StatusUnprocessableEntity, "cache"},
		{http.StatusTooManyRequests, "cache"},
		{http.StatusServiceUnavailable, "cache"},
	} {
		t.Run(fmt.Sprintf("%d-%s", tc.status, tc.src), func(t *testing.T) {
			sb := newHeldStub(t, tc.status, tc.src)
			g := newGateway(t, Options{
				Backends:    []string{hostPort(t, sb.ts.URL)},
				Attempts:    1,
				EjectAfter:  100,
				BackoffBase: time.Millisecond,
			})
			gw := httptest.NewServer(g.Handler())
			defer gw.Close()
			for range 3 {
				// A 429 zeroes the backend's headroom, which would shed the
				// next submission at admission; forget it.
				g.backends[0].headroom.Store(-1)
				_, hdr, _ := submitTo(t, gw.URL, "/v1/run", "", specBody)
				if hdr.Get("X-Rumorgw-Source") != "" {
					t.Fatal("reply served from memory")
				}
			}
			if got := sb.waited.Load(); got != 3 {
				t.Fatalf("backend saw %d of 3 waited POSTs", got)
			}
			if heldReply(g, runJobID(t, specBody)) != nil || g.held.Load() != 0 {
				t.Fatal("reply held")
			}
		})
	}
}

// TestHeldAdmissionStillApplies: a held reply is still a submission. A
// client over its rate quota gets its 429 even for a held ID, and the
// admission conservation law holds across held replies, which count as
// accepted.
func TestHeldAdmissionStillApplies(t *testing.T) {
	sb := newHeldStub(t, http.StatusOK, "cache")
	g := newGateway(t, Options{
		Backends: []string{hostPort(t, sb.ts.URL)},
		Quotas: admission.Config{Clients: map[string]admission.Quota{
			"limited": {RatePerSec: 0.001, Burst: 2},
		}},
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	id := runJobID(t, specBody)

	if code, _, _ := submitTo(t, gw.URL, "/v1/run", "limited", specBody); code != http.StatusOK {
		t.Fatalf("first submission: %d", code)
	}
	code, hdr, _ := submitTo(t, gw.URL, "/v1/run", "limited", specBody)
	if code != http.StatusOK {
		t.Fatalf("second submission: %d", code)
	}
	checkHeldHeaders(t, hdr, id, "application/json")
	code, hdr, _ = submitTo(t, gw.URL, "/v1/run", "limited", specBody)
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("over quota with a held ID: status %d Retry-After %q, want 429 with a hint", code, hdr.Get("Retry-After"))
	}
	// Another client is not limited and gets the held reply.
	if code, hdr, _ := submitTo(t, gw.URL, "/v1/run", "", specBody); code != http.StatusOK || hdr.Get("X-Rumorgw-Source") != "held" {
		t.Fatalf("unlimited client: %d %q", code, hdr.Get("X-Rumorgw-Source"))
	}

	st := g.Admission()
	if st.Submitted != st.Dispatched+st.Throttled+st.Shed+st.Canceled+int64(st.QueueLen) {
		t.Fatalf("conservation broken: %+v", st)
	}
	if st.Submitted != 4 || st.Dispatched != 3 || st.Throttled != 1 {
		t.Fatalf("admission counted %+v, want 4 submitted = 3 dispatched + 1 throttled", st)
	}
	if c := st.ByClass["limited"]; c.Accepted != 2 || c.Throttled != 1 {
		t.Fatalf("limited class %+v, want 2 accepted, 1 throttled", c)
	}
	if got, want := g.held.Load(), int64(2); got != want {
		t.Fatalf("held = %d, want %d", got, want)
	}
	if got := sb.waited.Load(); got != 1 {
		t.Fatalf("backend saw %d waited POSTs, want 1", got)
	}
}

// TestHeldCounters: /metrics and /v1/healthz report held replies —
// submissions, polls and streams alike — apart from proxied requests, and
// the held-bytes gauge is the memory's cost.
func TestHeldCounters(t *testing.T) {
	sb := newHeldStub(t, http.StatusOK, "disk")
	g := newGateway(t, Options{Backends: []string{hostPort(t, sb.ts.URL)}})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	id := runJobID(t, specBody)
	for range 3 {
		if code, _, _ := submitTo(t, gw.URL, "/v1/run", "", specBody); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/stream"} {
		for range 2 {
			if code, _, _ := getFrom(t, gw.URL+path); code != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, code)
			}
		}
	}

	sc := scrapeGW(t, gw.URL)
	total, _ := g.specs.Cost()
	for name, want := range map[string]float64{
		"rumorgw_held_replies_total": 4,
		"rumorgw_requests_total":     3,
		"rumorgw_held_bytes":         float64(total),
	} {
		if got, _ := sc.Value(name, nil); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	if total <= int64(len(heldBody)+len(heldPoll)+len(heldStream)) {
		t.Fatalf("held bytes %d do not cover the held replies", total)
	}

	resp, err := http.Get(gw.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz healthzBody
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Stats.Held != 4 || hz.Stats.Requests != 3 {
		t.Fatalf("healthz stats %+v, want held 4, requests 3", hz.Stats)
	}
}

// TestHeldBudget lowers the memory's byte budget: the total cost never
// passes it, the oldest entries go first, and the newest reply is held.
func TestHeldBudget(t *testing.T) {
	sb := newHeldStub(t, http.StatusOK, "cache")
	g := newGateway(t, Options{Backends: []string{hostPort(t, sb.ts.URL)}})
	const budget = 4 << 10
	g.specs.SetCost(budget, specCost)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	const specs = 40
	for seed := range uint64(specs) {
		if code, _, _ := submitTo(t, gw.URL, "/v1/run", "", runSpec(seed)); code != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, code)
		}
		if total, b := g.specs.Cost(); total > budget || b != budget {
			t.Fatalf("after seed %d: cost %d over budget %d", seed, total, b)
		}
	}
	if n := g.specs.Len(); n == 0 || n >= specs {
		t.Fatalf("%d entries resident under a %d-byte budget, want some but not all %d", n, budget, specs)
	}
	if heldReply(g, runJobID(t, runSpec(0))) != nil {
		t.Fatal("the least recently used entry survived the budget")
	}
	if string(heldReply(g, runJobID(t, runSpec(specs-1)))) != heldBody {
		t.Fatal("the newest reply is not held")
	}
}

// TestHeldEntryStillReruns is TestStreamResumeByRerun after the job's
// entry gained a held reply and a held poll: the backend streaming the
// job dies, its replacement has never heard of it, and the rerun still
// recalls the original request from the entry. The resumed stream is
// complete, so it is held too, and the next stream is answered from it.
func TestHeldEntryStillReruns(t *testing.T) {
	frames := [][]byte{
		[]byte(`{"trial":0,"rounds":3}` + "\n"),
		[]byte(`{"trial":1,"rounds":4}` + "\n"),
	}
	final := []byte(`{"done":true,"job":"x","trials":2}` + "\n")
	var waited, reruns, streams atomic.Int32
	var rerunBody atomic.Value
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == "POST" && r.URL.Query().Get("wait") == "0":
			reruns.Add(1)
			b, _ := io.ReadAll(r.Body)
			rerunBody.Store(string(b))
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"status":"queued"}` + "\n"))
		case r.Method == "POST":
			waited.Add(1)
			w.Header().Set("X-Rumord-Source", "cache")
			w.Write([]byte(heldBody))
		case r.Method == "GET" && !strings.HasSuffix(r.URL.Path, "/stream"):
			w.Write([]byte(heldPoll))
		case strings.HasSuffix(r.URL.Path, "/stream"):
			switch streams.Add(1) {
			case 1:
				w.Write(frames[0])
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			case 2:
				http.Error(w, `{"error":"unknown job"}`, http.StatusNotFound)
			default:
				w.Write(bytes.Join(append(append([][]byte{}, frames...), final), nil))
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
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	id := runJobID(t, specBody)

	if code, _, _ := submitTo(t, gw.URL, "/v1/run", "", specBody); code != http.StatusOK {
		t.Fatalf("seed submission: %d", code)
	}
	if heldReply(g, id) == nil {
		t.Fatal("the job's entry holds no reply")
	}
	if code, _, _ := getFrom(t, gw.URL+"/v1/jobs/"+id); code != http.StatusOK {
		t.Fatalf("poll: %d", code)
	}
	if e, _ := g.specs.Get(id); string(e.poll) != heldPoll {
		t.Fatal("the job's entry holds no poll")
	}
	resp, err := http.Get(gw.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Join(append(append([][]byte{}, frames...), final), nil); !bytes.Equal(got, want) {
		t.Fatalf("stream bytes:\ngot:  %q\nwant: %q", got, want)
	}
	if reruns.Load() != 1 || rerunBody.Load() != specBody {
		t.Fatalf("rerun POSTs = %d with body %v, want 1 with the original request", reruns.Load(), rerunBody.Load())
	}
	if waited.Load() != 1 || g.streamReruns.Load() != 1 {
		t.Fatalf("waited POSTs = %d, streamReruns = %d; want 1 and 1", waited.Load(), g.streamReruns.Load())
	}
	e, _ := g.specs.Get(id)
	if e.resp == nil || e.poll == nil {
		t.Fatal("the rerun dropped a held reply")
	}
	want := bytes.Join(append(append([][]byte{}, frames...), final), nil)
	if !bytes.Equal(e.stream, want) {
		t.Fatalf("held stream %q, want the resumed stream %q", e.stream, want)
	}
	code, hdr, got := getFrom(t, gw.URL+"/v1/jobs/"+id+"/stream")
	if code != http.StatusOK || !bytes.Equal(got, want) || streams.Load() != 3 {
		t.Fatalf("stream after the hold: status %d, bytes equal %v, backend streams %d (want 3)",
			code, bytes.Equal(got, want), streams.Load())
	}
	checkHeldHeaders(t, hdr, id, "application/x-ndjson")
}

// TestHeldOversizeSubmission: a store replay larger than maxHeldBytes is
// relayed every time and never held.
func TestHeldOversizeSubmission(t *testing.T) {
	big := []byte(`{"x":"` + strings.Repeat("x", maxHeldBytes) + `"}` + "\n")
	var waited atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		waited.Add(1)
		w.Header().Set("X-Rumord-Source", "cache")
		w.Write(big)
	}))
	defer backend.Close()
	g := newGateway(t, Options{Backends: []string{hostPort(t, backend.URL)}})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	for i := range 3 {
		code, hdr, body := submitTo(t, gw.URL, "/v1/run", "", specBody)
		if code != http.StatusOK || !bytes.Equal(body, big) || hdr.Get("X-Rumorgw-Source") != "" {
			t.Fatalf("submission %d: status %d, relayed %v, source %q", i+1, code, bytes.Equal(body, big), hdr.Get("X-Rumorgw-Source"))
		}
	}
	if waited.Load() != 3 || heldReply(g, runJobID(t, specBody)) != nil {
		t.Fatalf("backend saw %d of 3 submissions; held %v", waited.Load(), heldReply(g, runJobID(t, specBody)) != nil)
	}
}
