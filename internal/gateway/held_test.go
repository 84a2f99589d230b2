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

// heldBody is what heldStub answers a waited submission with.
const heldBody = `{"held":"body"}` + "\n"

// heldStub is a backend that answers every waited POST with a fixed
// status and X-Rumord-Source, and every ?wait=0 POST with a 202.
type heldStub struct {
	ts     *httptest.Server
	waited atomic.Int64 // waited POSTs seen
	async  atomic.Int64 // ?wait=0 POSTs seen
}

func newHeldStub(t *testing.T, status int, src string) *heldStub {
	t.Helper()
	sb := &heldStub{}
	sb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
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

// checkHeldHeaders pins a held reply's headers: the job and the held
// source, and nothing that would name a backend which never saw it.
func checkHeldHeaders(t *testing.T, hdr http.Header, id string) {
	t.Helper()
	if got := hdr.Get("X-Rumorgw-Source"); got != "held" {
		t.Fatalf("X-Rumorgw-Source = %q, want held", got)
	}
	if got := hdr.Get("X-Rumord-Job"); got != id {
		t.Fatalf("X-Rumord-Job = %q, want %s", got, id)
	}
	if got := hdr.Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", got)
	}
	for _, h := range []string{"X-Rumorgw-Backend", "X-Rumord-Source"} {
		if v, ok := hdr[h]; ok {
			t.Fatalf("held reply carries %s: %v (no backend served it)", h, v)
		}
	}
}

// TestHeldOnSecondSight walks one run and one sweep through two real
// backends: the first reply (a simulation) is not held, the second (a
// cache replay) is, and the third is answered by the gateway alone —
// neither backend's request counters move — with the reference bytes.
func TestHeldOnSecondSight(t *testing.T) {
	sweepBody := `{"defaults":{"trials":2,"seed":3},"graphs":["star:12","cycle:10"],"protocols":["push","visitx"]}`
	for _, tc := range []struct {
		name, path, body string
		ref              func(t *testing.T) serve.Reference
	}{
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			var servers []*serve.Server
			var addrs []string
			for range 2 {
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
				servers = append(servers, s)
				addrs = append(addrs, hostPort(t, ts.URL))
			}
			g := newGateway(t, Options{Backends: addrs})
			gw := httptest.NewServer(g.Handler())
			defer gw.Close()
			ref := tc.ref(t)

			for i, want := range []string{"run", "cache"} {
				code, hdr, body := submitTo(t, gw.URL, tc.path, "", tc.body)
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

			backendRequests := func() (n int64) {
				for _, s := range servers {
					n += s.Stats().Requests
				}
				for _, b := range g.backends {
					n += b.proxyReqs.Load()
				}
				return n
			}
			before, proxied := backendRequests(), g.requests.Load()
			code, hdr, body := submitTo(t, gw.URL, tc.path, "", tc.body)
			if code != http.StatusOK || !bytes.Equal(body, ref.Body) {
				t.Fatalf("held reply: status %d, body equal to reference: %v", code, bytes.Equal(body, ref.Body))
			}
			checkHeldHeaders(t, hdr, ref.ID)
			if after := backendRequests(); after != before {
				t.Fatalf("held reply moved backend request counters %d -> %d", before, after)
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
	checkHeldHeaders(t, hdr, id)
	if got := sb.waited.Load(); got != 1 {
		t.Fatalf("backend saw %d waited POSTs, want 1", got)
	}
}

// TestHeldNeverClobberedConcurrently races waited and ?wait=0 submissions
// of one ID. Once a reply is held it stays held, every waited reply is the
// same bytes, and each waited request was either held or proxied.
func TestHeldNeverClobberedConcurrently(t *testing.T) {
	sb := newHeldStub(t, http.StatusOK, "dedup")
	g := newGateway(t, Options{Backends: []string{hostPort(t, sb.ts.URL)}})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	id := runJobID(t, specBody)

	const workers, each = 6, 10
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				path := "/v1/run"
				if (w+i)%2 == 1 {
					path += "?wait=0"
				}
				resp, err := http.Post(gw.URL+path, "application/json", strings.NewReader(specBody))
				if err != nil {
					bad.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if path == "/v1/run" && (resp.StatusCode != http.StatusOK || string(body) != heldBody) {
					bad.Add(1)
				}
				if path != "/v1/run" && resp.StatusCode != http.StatusAccepted {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d replies were wrong", n)
	}
	if string(heldReply(g, id)) != heldBody {
		t.Fatal("no reply held after the race")
	}
	waited := int64(workers * each / 2)
	if got := sb.waited.Load() + g.held.Load(); got != waited {
		t.Fatalf("backend waited POSTs + held replies = %d, want %d", got, waited)
	}
	if got := sb.async.Load(); got != waited {
		t.Fatalf("backend saw %d ?wait=0 POSTs, want %d (never served from memory)", got, waited)
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
	checkHeldHeaders(t, hdr, id)
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

// TestHeldCounters: /metrics and /v1/healthz report held replies apart
// from proxied requests, and the held-bytes gauge is the memory's cost.
func TestHeldCounters(t *testing.T) {
	sb := newHeldStub(t, http.StatusOK, "disk")
	g := newGateway(t, Options{Backends: []string{hostPort(t, sb.ts.URL)}})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	for range 3 {
		if code, _, _ := submitTo(t, gw.URL, "/v1/run", "", specBody); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}

	sc := scrapeGW(t, gw.URL)
	total, _ := g.specs.Cost()
	for name, want := range map[string]float64{
		"rumorgw_held_replies_total": 2,
		"rumorgw_requests_total":     1,
		"rumorgw_held_bytes":         float64(total),
	} {
		if got, _ := sc.Value(name, nil); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	if total <= int64(len(heldBody)) {
		t.Fatalf("held bytes %d do not cover the held body", total)
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
	if hz.Stats.Held != 2 || hz.Stats.Requests != 1 {
		t.Fatalf("healthz stats %+v, want held 2, requests 1", hz.Stats)
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
// entry gained a held reply: the backend streaming the job dies, its
// replacement has never heard of it, and the rerun still recalls the
// original request from the entry.
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
	if heldReply(g, id) == nil {
		t.Fatal("the rerun dropped the held reply")
	}
}
