package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"rumor/internal/experiment"
	"rumor/internal/metrics"
	"rumor/internal/serve"
)

// specBody is a /v1/run request as a client writes it.
type specBody struct {
	Graph     string           `json:"graph"`
	GraphSeed uint64           `json:"graphSeed,omitempty"`
	Protocol  experiment.Proto `json:"protocol"`
	Trials    int              `json:"trials"`
	Seed      uint64           `json:"seed"`
}

// sweepBody is a /v1/sweep request as a client writes it.
type sweepBody struct {
	Defaults struct {
		GraphSeed uint64 `json:"graphSeed,omitempty"`
		Trials    int    `json:"trials"`
	} `json:"defaults"`
	Graphs    []string           `json:"graphs"`
	Protocols []experiment.Proto `json:"protocols"`
	Seeds     []uint64           `json:"seeds"`
}

// serveGraphSeed fixes the realization of the random families the serve
// workloads request, so the backends build each graph once, in set-up.
const serveGraphSeed = 1

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types above always marshal
	}
	return b
}

// asRunSpec reads a request body the way the server does: onto the
// shared defaults.
func asRunSpec(body []byte) (experiment.RunSpec, error) {
	spec := experiment.DefaultRunSpec()
	err := json.Unmarshal(body, &spec)
	return spec, err
}

// serve-cold's stratification: one request in coldHeavyOneIn is the
// heavy point, and one reply in coldKeepOneIn is compared byte for byte
// with a local reference.
const (
	coldTrials     = 16
	coldHeavyOneIn = 20
	coldKeepOneIn  = 50
)

// serve-hot's request shape.
const (
	hotTrials     = 4
	hotZipfS      = 1.1
	hotSweepSeeds = 4
)

// hotSpec is one member of the working set with its three verified
// request forms.
type hotSpec struct {
	run, job, stream request
}

type serveWorkload struct {
	e     *env
	hot   bool
	stack *procStack
	build time.Duration

	// serve-cold
	light []enginePoint
	heavy enginePoint
	kept  []reply
	sent  int // cold requests handed out so far: no window repeats a spec

	// serve-hot
	set       []hotSpec
	sweeps    []request
	simulated float64 // rumord_simulations_total delta of the last window
}

func newServeWorkload(e *env, hot bool) *serveWorkload {
	return &serveWorkload{
		e: e, hot: hot,
		light: rowPoints(e.size.coldLight), heavy: e.size.coldHeavy,
	}
}

// coldRequest is the k-th request of the cold list: a spec no one has
// sent before (its seed is unique to k), so every reply is a simulation.
// The mix is stratified, not drawn: every coldHeavyOneIn-th request is
// heavy, every coldKeepOneIn-th is kept, and the light points take turns
// — at offsets the seed picks — so two runs of any length do the same
// kind of work and only the simulations' randomness differs.
func (w *serveWorkload) coldRequest(k int) request {
	at := func(tag uint64, oneIn int) bool {
		return (uint64(k)+mix(w.e.seed, tag))%uint64(oneIn) == 0
	}
	pt := w.light[(uint64(k)+mix(w.e.seed, 0x6c69676874))%uint64(len(w.light))]
	if at(0x6865617679, coldHeavyOneIn) {
		pt = w.heavy
	}
	return request{
		kind: kindRun, path: "/v1/run",
		body: mustJSON(specBody{
			Graph: pt.graph, GraphSeed: serveGraphSeed, Protocol: pt.proto,
			Trials: coldTrials, Seed: specSeed(w.e.seed^0x636f6c64, uint64(k)),
		}),
		keep: at(0x6b656570, coldKeepOneIn),
	}
}

// hotSeed is the j-th seed of the working set.
func (w *serveWorkload) hotSeed(j int) uint64 { return specSeed(w.e.seed^0x686f74, uint64(j)) }

func (w *serveWorkload) hotSpecBodies() [][]byte {
	var bodies [][]byte
	for j := range w.e.size.hotSeeds {
		for _, p := range experiment.Protos() {
			for _, g := range w.e.size.hotGraphs {
				bodies = append(bodies, mustJSON(specBody{
					Graph: g, GraphSeed: serveGraphSeed, Protocol: p, Trials: hotTrials, Seed: w.hotSeed(j),
				}))
			}
		}
	}
	return bodies
}

// hotSweepBodies are the sweeps the hot mix repeats: each a cross-product
// of one graph, two protocols and four seeds of the working set.
func (w *serveWorkload) hotSweepBodies() [][]byte {
	graphs, protos := w.e.size.hotGraphs, experiment.Protos()
	var bodies [][]byte
	for q := range w.e.size.hotSweeps {
		var b sweepBody
		b.Defaults.GraphSeed, b.Defaults.Trials = serveGraphSeed, hotTrials
		b.Graphs = []string{graphs[q%len(graphs)]}
		b.Protocols = []experiment.Proto{protos[q%len(protos)], protos[(q+1)%len(protos)]}
		for j := range hotSweepSeeds {
			b.Seeds = append(b.Seeds, w.hotSeed(q*hotSweepSeeds+j))
		}
		bodies = append(bodies, mustJSON(b))
	}
	return bodies
}

// hotGen is one client's request generator: a seeded Zipf popularity over
// the working set and a fixed mix of the four request kinds.
type hotGen struct {
	r      *rand.Rand
	z      *rand.Zipf
	sweeps int
}

func (w *serveWorkload) newHotGen(client, setSize int) *hotGen {
	r := rand.New(rand.NewPCG(w.e.seed, uint64(client)))
	return &hotGen{r: r, z: rand.NewZipf(r, hotZipfS, 1, uint64(setSize-1)), sweeps: w.e.size.hotSweeps}
}

// draw picks the next request: 90 % run replays, 5 % job polls, 4 %
// stream replays, 1 % fully warm sweeps.
func (g *hotGen) draw() (reqKind, int) {
	switch u := g.r.IntN(100); {
	case u < 90:
		return kindRun, int(g.z.Uint64())
	case u < 95:
		return kindJob, int(g.z.Uint64())
	case u < 99:
		return kindStream, int(g.z.Uint64())
	default:
		return kindSweep, g.r.IntN(g.sweeps)
	}
}

func (w *serveWorkload) digest() string {
	h := sha256.New()
	if !w.hot {
		for k := range 4096 {
			h.Write(w.coldRequest(k).body)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	bodies := w.hotSpecBodies()
	for _, b := range append(bodies, w.hotSweepBodies()...) {
		h.Write(b)
	}
	for c := range w.e.procs {
		g := w.newHotGen(c, len(bodies))
		for range 4096 {
			kind, idx := g.draw()
			fmt.Fprintf(h, "%d:%d\n", kind, idx)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// prepareHot computes, once per run, the reference reply of every member
// of the working set and of every sweep, locally, by the code path the
// servers run. It is the benchmark's own work, so only the first set-up
// sample of a run pays for it and the median set-up time does not.
func (w *serveWorkload) prepareHot() error {
	if w.set != nil {
		return nil
	}
	for _, body := range w.hotSpecBodies() {
		spec, err := asRunSpec(body)
		if err != nil {
			return err
		}
		ref, err := serve.ComputeReference(spec)
		if err != nil {
			return err
		}
		runSHA := sha256.Sum256(ref.Body)
		streamSHA := sha256.Sum256(append(bytes.Join(ref.Lines, nil), ref.Final...))
		w.set = append(w.set, hotSpec{
			run:    request{kind: kindRun, path: "/v1/run", body: body, want: &runSHA},
			job:    request{kind: kindJob, path: "/v1/jobs/" + ref.ID, want: &runSHA},
			stream: request{kind: kindStream, path: "/v1/jobs/" + ref.ID + "/stream", want: &streamSHA},
		})
	}
	for _, body := range w.hotSweepBodies() {
		sw := experiment.Sweep{Defaults: experiment.DefaultRunSpec()}
		if err := json.Unmarshal(body, &sw); err != nil {
			return err
		}
		points, err := sw.Expand()
		if err != nil {
			return err
		}
		ref, err := serve.ComputeSweepReference(points)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(ref.Body)
		w.sweeps = append(w.sweeps, request{kind: kindSweep, path: "/v1/sweep", body: body, want: &sum})
	}
	return nil
}

// workingSetRuns is the POST /v1/run form of every member of the hot
// working set.
func (w *serveWorkload) workingSetRuns() []request {
	runs := make([]request, len(w.set))
	for i, s := range w.set {
		runs[i] = s.run
	}
	return runs
}

// submitAll sends every request once through base, spread over the
// clients, and fails on the first reply that is not a verified 200.
func submitAll(ctx context.Context, base string, clients int, reqs []request) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for i := c; i < len(reqs) && errs[c] == nil; i += clients {
				status, _, body, _, err := do(ctx, hc, base, fmt.Sprintf("client-%d", c), reqs[i])
				switch {
				case err != nil:
					errs[c] = err
				case status != http.StatusOK:
					errs[c] = fmt.Errorf("%s: status %d: %s", reqs[i].path, status, bytes.TrimSpace(body))
				case !checkReply(reqs[i], body):
					errs[c] = fmt.Errorf("%s: reply differs from serve.ComputeReference", reqs[i].path)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setUp builds the daemons if needed, starts the stack and brings it to
// the state the measured phase assumes. For serve-cold that is warm graph
// memos: one request per point straight to each backend, with seeds the
// measured list never uses. For serve-hot it is the whole working set
// submitted and verified once, which leaves the most recent results in
// memory and the rest evicted to disk.
func (w *serveWorkload) setUp(ctx context.Context) error {
	if w.build == 0 {
		d, err := buildBinaries(ctx, w.e.binDir)
		if err != nil {
			return err
		}
		w.build = d
	}
	if w.hot {
		if err := w.prepareHot(); err != nil {
			return err
		}
	}
	stack, err := startProcStack(ctx, w.e.binDir, filepath.Join(w.e.runDir, "stack"))
	if err != nil {
		return err
	}
	w.stack = stack
	if w.hot {
		if err := submitAll(ctx, stack.gatewayURL(), w.e.procs, w.workingSetRuns()); err != nil {
			return err
		}
		return submitAll(ctx, stack.gatewayURL(), w.e.procs, w.sweeps)
	}
	var warm []request
	for i, pt := range append([]enginePoint{w.heavy}, w.light...) {
		warm = append(warm, request{kind: kindRun, path: "/v1/run", body: mustJSON(specBody{
			Graph: pt.graph, GraphSeed: serveGraphSeed, Protocol: pt.proto,
			Trials: 1, Seed: specSeed(w.e.seed^0x7761726d, uint64(i)),
		})})
	}
	for _, url := range stack.backendURLs() {
		if err := submitAll(ctx, url, 1, warm); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) tearDown() {
	if w.stack != nil {
		w.stack.stop()
		w.stack = nil
	}
}

// scrapes is one reading of every /metrics endpoint of the stack.
type scrapes struct {
	gateway  *metrics.Scrape
	backends []*metrics.Scrape
}

func scrapeOne(url string) (*metrics.Scrape, error) {
	resp, err := plainClient.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", url, resp.StatusCode)
	}
	return metrics.ParseText(resp.Body)
}

func scrapeStack(gatewayURL string, backendURLs []string) (scrapes, error) {
	var s scrapes
	var err error
	if s.gateway, err = scrapeOne(gatewayURL); err != nil {
		return s, err
	}
	for _, u := range backendURLs {
		sc, err := scrapeOne(u)
		if err != nil {
			return s, err
		}
		s.backends = append(s.backends, sc)
	}
	return s, nil
}

func sumOver(scs []*metrics.Scrape, name string, labels map[string]string) float64 {
	t := 0.0
	for _, sc := range scs {
		v, _ := sc.Value(name, labels)
		t += v
	}
	return t
}

// serveCounters is the outside view of a serve window: /metrics deltas of
// the gateway and the backends, the reply headers, and the processes'
// CPU and memory. It is all zero for the in-process workloads, which send
// no request.
type serveCounters struct {
	bySource                                 map[string]float64 // rumord_requests_by_source_total deltas
	byBackend                                map[string]int     // replies per X-Rumorgw-Backend
	simulations, simBusy                     float64
	spillWrites, spillWriteBytes, spillReads float64
	spillErrors, rejected                    float64
	queueWaitSum, queueWaitCount             float64
	throttled, admissionShed                 float64
	retries, failovers, gatewayShed          float64
	workers                                  float64
	gatewayCPU, backendCPU                   float64
	peakRSSMiB                               float64
	build                                    time.Duration
}

// countersBetween turns two scrapes into the window's deltas.
func countersBetween(a, b scrapes) serveCounters {
	be := func(name string, labels map[string]string) float64 {
		return sumOver(b.backends, name, labels) - sumOver(a.backends, name, labels)
	}
	gw := func(name string) float64 { return b.gateway.Sum(name) - a.gateway.Sum(name) }
	c := serveCounters{bySource: map[string]float64{}}
	for _, src := range []string{"run", "cache", "disk", "dedup"} {
		c.bySource[src] = be("rumord_requests_by_source_total", map[string]string{"source": src})
	}
	c.simulations = be("rumord_simulations_total", nil)
	c.simBusy = be("rumord_simulation_seconds_sum", nil)
	c.spillWrites = be("rumord_spill_writes_total", nil)
	c.spillWriteBytes = be("rumord_spill_write_bytes_total", nil)
	c.spillReads = be("rumord_spill_reads_total", nil)
	c.spillErrors = be("rumord_spill_errors_total", nil)
	c.rejected = be("rumord_submit_rejections_total", nil)
	c.workers = sumOver(b.backends, "rumord_workers", nil)
	c.queueWaitSum = gw("rumorgw_admission_queue_wait_seconds_sum")
	c.queueWaitCount = gw("rumorgw_admission_queue_wait_seconds_count")
	c.throttled = gw("rumorgw_admission_throttled_total")
	c.admissionShed = gw("rumorgw_admission_shed_total")
	c.retries = gw("rumorgw_retries_total")
	c.failovers = gw("rumorgw_failovers_total")
	c.gatewayShed = gw("rumorgw_shed_total")
	return c
}

// mergeTallies folds the clients' tallies into a window.
func mergeTallies(win *window, tallies []clientTally, e *env) {
	win.serve.byBackend = map[string]int{}
	for c, t := range tallies {
		win.attempted += t.attempted
		win.failed += t.failed
		win.latencies = append(win.latencies, t.latencies...)
		win.overhead = append(win.overhead, t.overhead...)
		for b, n := range t.byBackend {
			win.serve.byBackend[b] += n
		}
		if t.firstFailure != "" {
			fmt.Fprintf(e.log, "client %d: first failure: %s\n", c, t.firstFailure)
		}
	}
}

// measure drives the stack through the gateway, closed loop, for d. The
// op and the latency sample are one request.
func (w *serveWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	first := w.sent
	next := func(c, i int) request { return w.coldRequest(first + i*w.e.procs + c) }
	if w.hot {
		gens := make([]*hotGen, w.e.procs)
		for c := range gens {
			gens[c] = w.newHotGen(c, len(w.set))
		}
		next = func(c, _ int) request {
			switch kind, idx := gens[c].draw(); kind {
			case kindRun:
				return w.set[idx].run
			case kindJob:
				return w.set[idx].job
			case kindStream:
				return w.set[idx].stream
			default:
				return w.sweeps[idx]
			}
		}
	}
	s := w.stack
	before, err := scrapeStack(s.gatewayURL(), s.backendURLs())
	if err != nil {
		return nil, err
	}
	gw0, be0, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tallies := runClients(ctx, s.gatewayURL(), w.e.procs, d, next, tr)
	win := &window{wall: time.Since(start)}
	gw1, be1, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := scrapeStack(s.gatewayURL(), s.backendURLs())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	win.serve = countersBetween(before, after)
	mergeTallies(win, tallies, w.e)
	for _, t := range tallies {
		w.sent = max(w.sent, first+t.attempted*w.e.procs)
	}
	win.serve.gatewayCPU, win.serve.backendCPU = gw1-gw0, be1-be0
	win.serve.build = w.build
	win.cpu = win.serve.gatewayCPU + win.serve.backendCPU
	if win.serve.peakRSSMiB, err = s.peakRSSMiB(); err != nil {
		return nil, err
	}
	w.kept = w.kept[:0]
	for _, t := range tallies {
		w.kept = append(w.kept, t.kept...)
	}
	w.simulated = win.serve.simulations
	return win, nil
}

// verify checks what a window could not check reply by reply. serve-cold:
// the sampled replies equal a local serve.ComputeReference byte for byte.
// serve-hot: nothing was simulated — every reply was a replay.
func (w *serveWorkload) verify(ctx context.Context) error {
	if w.hot {
		if w.simulated != 0 {
			return fmt.Errorf("serve-hot simulated %.0f jobs in the measured phase; every reply must be a replay", w.simulated)
		}
		return nil
	}
	if len(w.kept) == 0 {
		return fmt.Errorf("no reply was sampled for the reference check")
	}
	for _, r := range w.kept {
		spec, err := asRunSpec(r.req.body)
		if err != nil {
			return err
		}
		ref, err := serve.ComputeReference(spec)
		if err != nil {
			return err
		}
		if !bytes.Equal(ref.Body, r.body) {
			return fmt.Errorf("reply to %s differs from serve.ComputeReference", r.req.body)
		}
	}
	return nil
}

func (w *serveWorkload) peakRSSMiB() (float64, error) { return w.stack.peakRSSMiB() }
