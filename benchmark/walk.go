package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"rumor/internal/admission"
	"rumor/internal/experiment"
	"rumor/internal/gateway"
	"rumor/internal/serve"
)

// inprocStack is the serve workloads' topology composed inside the
// benchmark process — two serve.Servers and a gateway.Gateway behind
// loopback listeners — so that the traced run can enter the same request
// at every boundary: through the gateway, straight at a backend's
// listener, and straight at its handler.
type inprocStack struct {
	servers  []*serve.Server
	handlers []http.Handler
	https    []*http.Server
	gw       *gateway.Gateway
	gwURL    string
	urls     []string // backend URLs, indexed like servers
}

func listenAndServe(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) // returns when stop closes srv
	return srv, ln.Addr().String(), nil
}

func startInproc(dir string) (*inprocStack, error) {
	s := &inprocStack{}
	var addrs []string
	for i := range stackBackends {
		srv, err := serve.New(serve.Options{
			Workers: backendWorkers, CacheSize: backendCache,
			DataDir: filepath.Join(dir, fmt.Sprintf("inproc-%d", i)),
		})
		if err != nil {
			s.stop()
			return nil, err
		}
		s.servers = append(s.servers, srv)
		h := srv.Handler()
		s.handlers = append(s.handlers, h)
		hs, addr, err := listenAndServe(h)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.https = append(s.https, hs)
		s.urls = append(s.urls, "http://"+addr)
		addrs = append(addrs, addr)
	}
	gw, err := gateway.New(gateway.Options{Backends: addrs, CheckInterval: 500 * time.Millisecond})
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gw = gw
	hs, addr, err := listenAndServe(gw.Handler())
	if err != nil {
		s.stop()
		return nil, err
	}
	s.https = append(s.https, hs)
	s.gwURL = "http://" + addr
	return s, nil
}

func (s *inprocStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range s.https {
		hs.Shutdown(ctx)
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, srv := range s.servers {
		srv.Shutdown(ctx)
	}
}

// backendOf maps an X-Rumorgw-Backend header to the backend's index.
func (s *inprocStack) backendOf(addr string) (int, bool) {
	for i, u := range s.urls {
		if strings.TrimPrefix(u, "http://") == addr {
			return i, true
		}
	}
	return 0, false
}

// onRecorder serves rq with h directly — no listener, no connection — and
// returns the status, the source header, the body and the time it took.
func onRecorder(h http.Handler, rq request) (int, string, []byte, time.Duration) {
	method, rd := http.MethodGet, io.Reader(nil)
	if rq.body != nil {
		method, rd = http.MethodPost, bytes.NewReader(rq.body)
	}
	hr := httptest.NewRequest(method, rq.path, rd)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, hr)
	d := time.Since(t0)
	return rec.Code, rec.Header().Get("X-Rumord-Source"), rec.Body.Bytes(), d
}

// budget is one serve workload's latency budget: the observed median of
// the whole path beside independently measured parts.
type budget struct {
	workload string
	observed float64 // µs, client round trip through the gateway
	parts    []budgetPart
}

type budgetPart struct {
	name string
	us   float64
}

func (b *budget) remainderPct() float64 {
	t := 0.0
	for _, p := range b.parts {
		t += p.us
	}
	return 100 * ratio(b.observed-t, b.observed)
}

func (b *budget) print(w io.Writer) {
	fmt.Fprintf(w, "latency budget %s: layer sum vs observed p50\n", b.workload)
	t := 0.0
	for _, p := range b.parts {
		t += p.us
		fmt.Fprintf(w, "  %-44s %10.1f us %6.1f %%\n", p.name, p.us, 100*ratio(p.us, b.observed))
	}
	fmt.Fprintf(w, "  %-44s %10.1f us %6.1f %%\n", "layer sum", t, 100*ratio(t, b.observed))
	fmt.Fprintf(w, "  %-44s %10.1f us\n", "observed p50 through the gateway", b.observed)
	fmt.Fprintf(w, "  %-44s %10.1f us %6.1f %%\n", "remainder (unexplained)", b.observed-t, b.remainderPct())
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// walkStack is the serve half of the per-layer ledger. It composes the
// stack in-process and takes a sample of each serve workload's request
// list through every boundary by hand: client round trip through the
// gateway → round trip straight to the owning backend → the backend's
// Handler on a recorder → JobID → Acquire/Release → RunSpec.Build →
// RunSpec.RunOn. Differences between adjacent levels are the gateway hop,
// the HTTP stack and the handler; what the parts do not add up to is the
// budget's named remainder.
func walkStack(ctx context.Context, l *ledger, e *env, tr *tracer, out io.Writer) error {
	stack, err := startInproc(e.runDir)
	if err != nil {
		return err
	}
	defer stack.stop()
	hc := newClient()
	defer hc.CloseIdleConnections()
	n := e.size.walk
	timed := func(name, layer string, req int, fn func() (time.Duration, error)) (float64, error) {
		sp := tr.begin(name, layer, -1, req)
		d, err := fn()
		tr.end(sp)
		return us(d), err
	}
	roundTrip := func(base string, rq request) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			status, _, body, d, err := do(ctx, hc, base, "client-0", rq)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("%s%s: status %d: %s", base, rq.path, status, bytes.TrimSpace(body))
			}
			return d, err
		}
	}

	// The HTTP floor: a round trip to a handler that does next to nothing
	// minus that handler's own time is what one hop of the HTTP stack
	// (client write, server parse, response, client read) costs here.
	ready := request{path: "/v1/readyz"}
	var readyRTT, readyHandler []float64
	for i := range n {
		v, err := timed("round trip readyz", "client", i, roundTrip(stack.urls[0], ready))
		if err != nil {
			return err
		}
		readyRTT = append(readyRTT, v)
		_, _, _, d := onRecorder(stack.handlers[0], ready)
		readyHandler = append(readyHandler, us(d))
	}
	httpHop := median(readyRTT) - median(readyHandler)

	// The gateway's own per-request work, each part on its own.
	ctrl := admission.NewController(admission.Options{})

	// Hot: requests whose replies every tier already holds.
	hot := newServeWorkload(e, true)
	bodies := hot.hotSpecBodies()
	var hotReqs []request
	for i := 0; len(hotReqs) < n && i < len(bodies); i++ {
		hotReqs = append(hotReqs, request{kind: kindRun, path: "/v1/run", body: bodies[i]})
	}
	if err := submitAll(ctx, stack.gwURL, 1, hotReqs); err != nil {
		return err
	}
	var viaGW, hop, handler, normalize, jobID, admit, stream []float64
	for i, rq := range hotReqs {
		var owner int
		v, err := timed("round trip via gateway", "client", i, func() (time.Duration, error) {
			status, hdr, _, d, err := do(ctx, hc, stack.gwURL, "client-0", rq)
			if err != nil || status != http.StatusOK {
				return d, fmt.Errorf("hot walk via gateway: status %d: %v", status, err)
			}
			var ok bool
			if owner, ok = stack.backendOf(hdr.Get("X-Rumorgw-Backend")); !ok {
				return d, fmt.Errorf("unknown backend %q", hdr.Get("X-Rumorgw-Backend"))
			}
			return d, nil
		})
		if err != nil {
			return err
		}
		viaGW = append(viaGW, v)
		v2, err := timed("round trip to backend", "client", i, roundTrip(stack.urls[owner], rq))
		if err != nil {
			return err
		}
		hop = append(hop, v-v2)
		var id string
		v, _ = timed("Handler.ServeHTTP cached", "serve", i, func() (time.Duration, error) {
			_, src, _, d := onRecorder(stack.handlers[owner], rq)
			if src != "cache" {
				return d, fmt.Errorf("hot walk: handler answered from %q, want cache", src)
			}
			return d, nil
		})
		handler = append(handler, v)
		spec, err := asRunSpec(rq.body)
		if err != nil {
			return err
		}
		var norm experiment.RunSpec
		v, err = timed("Normalize+CanonicalJSON", "experiment", i, func() (time.Duration, error) {
			t0 := time.Now()
			var err error
			norm, err = spec.Normalize()
			sink += uint64(len(norm.CanonicalJSON()))
			return time.Since(t0), err
		})
		if err != nil {
			return err
		}
		normalize = append(normalize, v)
		v, _ = timed("JobID", "serve", i, func() (time.Duration, error) {
			t0 := time.Now()
			id = serve.JobID(norm)
			return time.Since(t0), nil
		})
		jobID = append(jobID, v)
		v, _ = timed("Acquire+Release", "admission", i, func() (time.Duration, error) {
			t0 := time.Now()
			ctrl.Acquire(ctx, "client-0", "127.0.0.1:1").Release()
			return time.Since(t0), nil
		})
		admit = append(admit, v)
		v, _ = timed("Handler.ServeHTTP stream replay", "serve", i, func() (time.Duration, error) {
			_, _, _, d := onRecorder(stack.handlers[owner], request{path: "/v1/jobs/" + id + "/stream"})
			return d, nil
		})
		stream = append(stream, v)
	}
	gwWork := median(normalize) + median(jobID) + median(admit)
	hotBudget := &budget{workload: "serve-hot", observed: median(viaGW), parts: []budgetPart{
		{"client↔gateway HTTP hop (readyz floor)", httpHop},
		{"gateway: Normalize+CanonicalJSON", median(normalize)},
		{"gateway: serve.JobID", median(jobID)},
		{"gateway: admission Acquire+Release", median(admit)},
		{"gateway↔backend HTTP hop (readyz floor)", httpHop},
		{"backend: Handler.ServeHTTP, cached", median(handler)},
	}}
	l.set("gateway.hop_us", median(hop))
	l.set("serve.handler_cached_us", median(handler))
	l.set("serve.stream_replay_us", median(stream))
	l.set("budget.serve-hot.remainder_pct", hotBudget.remainderPct())

	// Cold: every level gets its own never-seen seed of the same point, so
	// each one simulates; the levels cost the same in distribution.
	cold := newServeWorkload(e, false)
	coldN := max(n/5, 4)
	var coldGW, coldHandler, build, simulate []float64
	for i := range coldN {
		pt, err := asRunSpec(cold.coldRequest(i).body)
		if err != nil {
			return err
		}
		sameBut := func(level uint64) request {
			return request{kind: kindRun, path: "/v1/run", body: mustJSON(specBody{
				Graph: pt.Graph, GraphSeed: pt.GraphSeed, Protocol: pt.Protocol, Trials: pt.Trials,
				Seed: specSeed(pt.Seed^0x77616c6b, level),
			})}
		}
		v, err := timed("round trip via gateway", "client", n+i, roundTrip(stack.gwURL, sameBut(0)))
		if err != nil {
			return err
		}
		coldGW = append(coldGW, v)
		v, err = timed("Handler.ServeHTTP cold", "serve", n+i, func() (time.Duration, error) {
			status, src, body, d := onRecorder(stack.handlers[i%stackBackends], sameBut(1))
			if status != http.StatusOK || src != "run" {
				return d, fmt.Errorf("cold walk: status %d from %q: %s", status, src, bytes.TrimSpace(body))
			}
			return d, nil
		})
		if err != nil {
			return err
		}
		coldHandler = append(coldHandler, v)
		spec, err := asRunSpec(sameBut(2).body)
		if err != nil {
			return err
		}
		norm, err := spec.Normalize()
		if err != nil {
			return err
		}
		sp := tr.begin("RunSpec.Build", "experiment", -1, n+i)
		t0 := time.Now()
		g, src, err := norm.Build()
		build = append(build, us(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("RunSpec.RunOn", "core", -1, n+i)
		t0 = time.Now()
		_, err = norm.RunOn(g, src, nil)
		simulate = append(simulate, us(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	encode := median(coldHandler) - median(build) - median(simulate)
	coldBudget := &budget{workload: "serve-cold", observed: median(coldGW), parts: []budgetPart{
		{"client↔gateway HTTP hop (readyz floor)", httpHop},
		{"gateway: Normalize+JobID+admission", gwWork},
		{"gateway↔backend HTTP hop (readyz floor)", httpHop},
		{"backend: RunSpec.Build (memo hit)", median(build)},
		{"backend: RunSpec.RunOn (simulate)", median(simulate)},
		{"backend: handler − build − simulate (decode, queue, encode, cache insert)", encode},
	}}
	l.set("serve.handler_cold_ms", median(coldHandler)/1e3)
	l.set("serve.encode_share", ratio(encode, median(coldHandler)))
	l.set("budget.serve-cold.remainder_pct", coldBudget.remainderPct())

	// A reply evicted to disk: a server whose cache holds 8 results is
	// handed 8·8, so asking for the oldest again reads the spill tier.
	small, err := serve.New(serve.Options{
		Workers: backendWorkers, CacheSize: 8, Shards: 1,
		DataDir: filepath.Join(e.runDir, "inproc-disk"),
	})
	if err != nil {
		return err
	}
	defer small.Shutdown(ctx)
	smallH := small.Handler()
	var spilled []request
	for _, body := range bodies[:min(len(bodies), 64)] {
		spilled = append(spilled, request{kind: kindRun, path: "/v1/run", body: body})
	}
	for _, rq := range spilled {
		if status, _, body, _ := onRecorder(smallH, rq); status != http.StatusOK {
			return fmt.Errorf("disk walk: status %d: %s", status, bytes.TrimSpace(body))
		}
	}
	var disk []float64
	for i, rq := range spilled[:len(spilled)-8] {
		v, err := timed("Handler.ServeHTTP disk", "serve", i, func() (time.Duration, error) {
			_, src, _, d := onRecorder(smallH, rq)
			if src != "disk" {
				return d, fmt.Errorf("disk walk: handler answered from %q, want disk", src)
			}
			return d, nil
		})
		if err != nil {
			return err
		}
		disk = append(disk, v)
	}
	l.set("serve.handler_disk_us", median(disk))

	// Sweep planning over points the backend already holds, and one scrape.
	var plan []float64
	for i, body := range hot.hotSweepBodies() {
		sw := experiment.Sweep{Defaults: experiment.DefaultRunSpec()}
		if err := json.Unmarshal(body, &sw); err != nil {
			return err
		}
		points, err := sw.Expand()
		if err != nil {
			return err
		}
		for _, pt := range points {
			rq := request{kind: kindRun, path: "/v1/run", body: pt.Spec.CanonicalJSON()}
			if status, _, body, _ := onRecorder(stack.handlers[0], rq); status != http.StatusOK {
				return fmt.Errorf("sweep walk: status %d: %s", status, bytes.TrimSpace(body))
			}
		}
		v, err := timed("Handler.ServeHTTP sweep plan", "serve", i, func() (time.Duration, error) {
			status, _, body, d := onRecorder(stack.handlers[0], request{kind: kindSweep, path: "/v1/sweep", body: body})
			if status != http.StatusOK {
				return d, fmt.Errorf("sweep walk: status %d: %s", status, bytes.TrimSpace(body))
			}
			return d, nil
		})
		if err != nil {
			return err
		}
		plan = append(plan, v)
	}
	l.set("serve.sweep_plan_us_per_point", median(plan)/(2*hotSweepSeeds))
	var scrape []float64
	for i := range 20 {
		v, _ := timed("Handler.ServeHTTP /metrics", "serve", i, func() (time.Duration, error) {
			_, _, _, d := onRecorder(stack.handlers[0], request{path: "/metrics"})
			return d, nil
		})
		scrape = append(scrape, v)
	}
	l.set("serve.metrics_scrape_ms", median(scrape)/1e3)

	hotBudget.print(out)
	coldBudget.print(out)
	return nil
}
