// Command soak is the kill-driven soak harness for the gateway tier: it
// spawns a rumorgw gateway and N rumord backends as real OS processes,
// drives sustained concurrent mixed traffic (runs, duplicate specs,
// sweeps, streams, job polls) through the gateway, SIGKILLs and restarts
// random backends on a schedule, and asserts the two properties the tier
// promises:
//
//   - zero dropped requests: every request completes (the harness
//     honors load-shed Retry-After and retries transient failures, so a
//     "drop" means the tier failed to serve a request within its grace
//     budget);
//   - zero wrong bytes: every /v1/run and /v1/sweep body and every
//     NDJSON stream is byte-identical to a locally computed
//     single-process reference (serve.ComputeReference) — retries,
//     failovers, and mid-stream backend deaths included.
//
// It exits non-zero on any drop, mismatch, or missed kill, and prints a
// summary with the gateway's retry/failover/shed counters.
//
// Usage:
//
//	soak -backends 3 -kills 2 -duration 30s -clients 6
//	soak -rumord-bin ./rumord -gw-bin ./rumorgw   # prebuilt (e.g. -race) binaries
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rumor/internal/experiment"
	"rumor/internal/serve"
)

func main() {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	fs.IntVar(&cfg.backends, "backends", cfg.backends, "rumord backend count")
	fs.IntVar(&cfg.clients, "clients", cfg.clients, "concurrent traffic clients")
	fs.IntVar(&cfg.kills, "kills", cfg.kills, "scheduled backend SIGKILL+restarts")
	fs.DurationVar(&cfg.duration, "duration", cfg.duration, "traffic duration")
	fs.DurationVar(&cfg.down, "down", cfg.down, "how long a killed backend stays down before restart")
	fs.DurationVar(&cfg.grace, "grace", cfg.grace, "per-request retry budget before it counts as dropped")
	fs.StringVar(&cfg.rumordBin, "rumord-bin", "", "prebuilt rumord binary (empty = go build one)")
	fs.StringVar(&cfg.gwBin, "gw-bin", "", "prebuilt rumorgw binary (empty = go build one)")
	fs.Uint64Var(&cfg.seed, "seed", cfg.seed, "traffic-shape RNG seed")
	fs.StringVar(&cfg.metricsOut, "metrics-out", cfg.metricsOut, "write the per-run metrics report here (empty = skip)")
	fs.DurationVar(&cfg.scrape, "scrape-interval", cfg.scrape, "mid-run /metrics scrape interval")
	fs.DurationVar(&cfg.fairness, "fairness", cfg.fairness, "post-storm fairness phase duration (0 = skip)")
	fs.IntVar(&cfg.greedyWorkers, "greedy-workers", cfg.greedyWorkers, "flooding workers on the greedy key during the fairness phase")
	fs.IntVar(&cfg.polite, "polite", cfg.polite, "well-behaved keyed clients during the fairness phase")
	fs.BoolVar(&cfg.verbose, "v", false, "pipe process logs to stderr and log every retry")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "soak: FAIL:", err)
		os.Exit(1)
	}
}

type config struct {
	backends   int
	clients    int
	kills      int
	duration   time.Duration
	down       time.Duration
	grace      time.Duration
	scrape     time.Duration
	rumordBin  string
	gwBin      string
	seed       uint64
	metricsOut string
	verbose    bool

	// fairness phase: a greedy keyed flooder vs polite keyed clients
	// against the quota file the harness writes at boot.
	fairness      time.Duration
	greedyWorkers int
	polite        int
}

func defaultConfig() config {
	return config{
		backends:   3,
		clients:    6,
		kills:      2,
		duration:   30 * time.Second,
		down:       750 * time.Millisecond,
		grace:      20 * time.Second,
		scrape:     500 * time.Millisecond,
		seed:       1,
		metricsOut: "SOAK_METRICS.json",

		fairness:      8 * time.Second,
		greedyWorkers: 12,
		polite:        3,
	}
}

// ---- workload ----------------------------------------------------------

// workload is the precomputed traffic: specs plus their byte-exact
// references, so verification during the storm is a bytes.Equal.
type workload struct {
	// runs is the general spec pool; hot is the subset duplicate traffic
	// hammers concurrently to exercise cross-client dedup.
	runs []refSpec
	hot  []refSpec
	// sweeps are fixed sweep requests with assembled references.
	sweeps []refSweep
	// fair is the polite clients' pool for the fairness phase: seeds
	// disjoint from both the storm specs and the greedy flood, so the
	// phase does fresh work instead of replaying the storm's cache.
	fair []refSpec
}

type refSpec struct {
	body []byte
	ref  serve.Reference
}

type refSweep struct {
	body []byte
	ref  serve.Reference
}

// buildWorkload precomputes every reference locally — the oracle all
// proxied bytes are checked against.
func buildWorkload() (*workload, error) {
	w := &workload{}
	graphs := []string{"star:64", "star:96", "cycle:40", "cycle:64", "complete:24", "path:48"}
	protos := experiment.Protos()
	for i, g := range graphs {
		for j := 0; j < 2; j++ {
			spec := experiment.DefaultRunSpec()
			spec.Graph = g
			spec.Protocol = protos[(i+j)%len(protos)]
			spec.Trials = 2 + (i+j)%3
			spec.Seed = uint64(1 + i*2 + j)
			spec.History = i%3 == 0
			rs, err := makeRefSpec(spec)
			if err != nil {
				return nil, err
			}
			w.runs = append(w.runs, rs)
		}
	}
	w.hot = w.runs[:3]
	for _, sw := range []experiment.Sweep{
		{
			Defaults:  withTrialsSeed(2, 5),
			Graphs:    []string{"star:32", "cycle:24"},
			Protocols: []experiment.Proto{experiment.ProtoPush, experiment.ProtoVisitX},
		},
		{
			Defaults:  withTrialsSeed(2, 1),
			Graphs:    []string{"star:48"},
			Protocols: []experiment.Proto{experiment.ProtoMeetX, experiment.ProtoHybrid},
			Seeds:     []uint64{1, 2},
		},
	} {
		body, err := json.Marshal(sw)
		if err != nil {
			return nil, err
		}
		points, err := sw.Expand()
		if err != nil {
			return nil, err
		}
		ref, err := serve.ComputeSweepReference(points)
		if err != nil {
			return nil, err
		}
		w.sweeps = append(w.sweeps, refSweep{body: body, ref: ref})
	}
	for i := 0; i < 6; i++ {
		spec := experiment.DefaultRunSpec()
		spec.Graph = graphs[i%len(graphs)]
		spec.Protocol = protos[i%len(protos)]
		spec.Trials = 2
		spec.Seed = uint64(900_000 + i)
		rs, err := makeRefSpec(spec)
		if err != nil {
			return nil, err
		}
		w.fair = append(w.fair, rs)
	}
	return w, nil
}

func withTrialsSeed(trials int, seed uint64) experiment.RunSpec {
	s := experiment.DefaultRunSpec()
	s.Trials = trials
	s.Seed = seed
	return s
}

func makeRefSpec(spec experiment.RunSpec) (refSpec, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return refSpec{}, err
	}
	ref, err := serve.ComputeReference(spec)
	if err != nil {
		return refSpec{}, err
	}
	return refSpec{body: body, ref: ref}, nil
}

// ---- process supervision -----------------------------------------------

// proc is one spawned process (backend or gateway).
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
}

type supervisor struct {
	cfg     config
	dir     string // temp dir for binaries and port files
	mu      sync.Mutex
	procs   map[string]*proc
	verbose bool
}

func (sv *supervisor) logf(format string, args ...any) {
	if sv.verbose {
		fmt.Fprintf(os.Stderr, "soak: "+format+"\n", args...)
	}
}

// spawn starts bin with args plus a fresh -port-file, waits for the
// published address, and registers the process under name.
func (sv *supervisor) spawn(name, bin string, args ...string) (*proc, error) {
	portFile := filepath.Join(sv.dir, name+".addr")
	os.Remove(portFile)
	cmd := exec.Command(bin, append(args, "-port-file", portFile)...)
	if sv.verbose {
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	addr, err := awaitPortFile(portFile, cmd)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd}
	sv.mu.Lock()
	sv.procs[name] = p
	sv.mu.Unlock()
	sv.logf("%s up on %s (pid %d)", name, addr, cmd.Process.Pid)
	return p, nil
}

// awaitPortFile waits for the spawned process to publish its bound
// address, failing fast if the process exits first (e.g. a bind
// conflict, which rumord reports with a non-zero exit instead of a
// panic).
func awaitPortFile(path string, cmd *exec.Cmd) (string, error) {
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-exited:
			return "", fmt.Errorf("exited before publishing its address: %v", err)
		default:
		}
		if b, err := os.ReadFile(path); err == nil {
			if addr := strings.TrimSpace(string(b)); addr != "" {
				// The Wait goroutine stays armed for the process's whole life:
				// it reaps the PID whenever a kill (scheduled or teardown)
				// lands, so no zombies accumulate.
				return addr, nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return "", fmt.Errorf("no address published within 15s")
}

// killAll tears every process down (TERM, then KILL after a grace).
func (sv *supervisor) killAll() {
	sv.mu.Lock()
	procs := make([]*proc, 0, len(sv.procs))
	for _, p := range sv.procs {
		procs = append(procs, p)
	}
	sv.procs = map[string]*proc{}
	sv.mu.Unlock()
	for _, p := range procs {
		p.cmd.Process.Signal(os.Interrupt)
	}
	done := time.Now().Add(5 * time.Second)
	for _, p := range procs {
		for time.Now().Before(done) && alive(p.cmd) {
			time.Sleep(50 * time.Millisecond)
		}
		p.cmd.Process.Kill()
	}
}

func alive(cmd *exec.Cmd) bool {
	return cmd.Process != nil && cmd.Process.Signal(syscall.Signal(0)) == nil
}

// ---- harness ------------------------------------------------------------

type counters struct {
	total, runs, dups, sweeps, streams, polls atomic.Int64
	retriesClient, pollMisses, truncations    atomic.Int64
	dropped, mismatches                       atomic.Int64
}

type harness struct {
	cfg      config
	sv       *supervisor
	w        *workload
	client   *http.Client
	gwURL    string
	backends []*backendSlot
	ctr      counters
	deadline time.Time

	mismatchMu sync.Mutex
	mismatch   []string

	recentMu sync.Mutex
	recent   []string // completed job IDs for poll traffic

	// obs counts the X-Rumord-Source values the clients actually saw,
	// attributed to the backend X-Rumorgw-Backend names — the ground
	// truth the metrics invariants compare backend counters against.
	obsMu sync.Mutex
	obs   map[string]map[string]int64 // backend addr -> source -> 200s seen
}

// noteSource records one successful run/sweep response's provenance
// headers. Responses missing either header are skipped rather than
// misattributed: the gateway's held replies carry neither, because no
// backend served them.
func (h *harness) noteSource(hdr http.Header) {
	src, be := hdr.Get("X-Rumord-Source"), hdr.Get("X-Rumorgw-Backend")
	if src == "" || be == "" {
		return
	}
	h.obsMu.Lock()
	if h.obs[be] == nil {
		h.obs[be] = map[string]int64{}
	}
	h.obs[be][src]++
	h.obsMu.Unlock()
}

func (h *harness) observedSources() map[string]map[string]int64 {
	h.obsMu.Lock()
	defer h.obsMu.Unlock()
	out := make(map[string]map[string]int64, len(h.obs))
	for be, m := range h.obs {
		cp := make(map[string]int64, len(m))
		for k, v := range m {
			cp[k] = v
		}
		out[be] = cp
	}
	return out
}

// backendSlot pins one backend's identity: the address survives
// kill/restart cycles so the ring keyspace never moves.
type backendSlot struct {
	index int
	addr  string
}

func (h *harness) failf(format string, args ...any) {
	h.ctr.mismatches.Add(1)
	h.mismatchMu.Lock()
	if len(h.mismatch) < 10 {
		h.mismatch = append(h.mismatch, fmt.Sprintf(format, args...))
	}
	h.mismatchMu.Unlock()
}

func run(cfg config) error {
	if cfg.backends < 1 || cfg.clients < 1 {
		return fmt.Errorf("need at least one backend and one client")
	}
	dir, err := os.MkdirTemp("", "rumor-soak-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rumordBin, gwBin := cfg.rumordBin, cfg.gwBin
	if rumordBin == "" || gwBin == "" {
		fmt.Println("soak: building rumord + rumorgw")
		if rumordBin == "" {
			if rumordBin, err = buildBinary(dir, "rumord", "rumor/cmd/rumord"); err != nil {
				return err
			}
		}
		if gwBin == "" {
			if gwBin, err = buildBinary(dir, "rumorgw", "rumor/cmd/rumorgw"); err != nil {
				return err
			}
		}
	}

	w, err := buildWorkload()
	if err != nil {
		return fmt.Errorf("precompute references: %w", err)
	}

	sv := &supervisor{cfg: cfg, dir: dir, procs: map[string]*proc{}, verbose: cfg.verbose}
	defer sv.killAll()

	h := &harness{
		cfg: cfg, sv: sv, w: w,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		obs:    map[string]map[string]int64{},
	}

	// Backends on ephemeral ports; the published address becomes the
	// slot's permanent identity (restarts re-bind it).
	for i := 0; i < cfg.backends; i++ {
		p, err := sv.spawn(backendName(i), rumordBin,
			"-addr", "127.0.0.1:0", "-workers", "2", "-cache", "256")
		if err != nil {
			return err
		}
		h.backends = append(h.backends, &backendSlot{index: i, addr: p.addr})
	}
	addrs := make([]string, len(h.backends))
	for i, b := range h.backends {
		addrs[i] = b.addr
	}
	// The gateway admits at most backends*workers concurrent submissions
	// (matching real dispatch capacity) under the harness's quota file —
	// storm clients are keyless and unlimited, the fairness keys are not.
	gwArgs := []string{
		"-addr", "127.0.0.1:0",
		"-backends", strings.Join(addrs, ","),
		"-check-interval", "150ms",
		"-attempts", "4",
		"-backoff", "25ms",
		"-per-try-timeout", "10s",
		"-max-inflight", strconv.Itoa(cfg.backends * 2),
	}
	if cfg.fairness > 0 {
		quotasPath, err := writeQuotasFile(dir, cfg.polite)
		if err != nil {
			return fmt.Errorf("write quotas file: %w", err)
		}
		gwArgs = append(gwArgs, "-quotas", quotasPath)
	}
	gw, err := sv.spawn("rumorgw", gwBin, gwArgs...)
	if err != nil {
		return err
	}
	h.gwURL = "http://" + gw.addr
	if err := h.awaitGateway(); err != nil {
		return err
	}

	fmt.Printf("soak: %d backends behind %s, %d clients, %v, %d scheduled kills\n",
		cfg.backends, gw.addr, cfg.clients, cfg.duration, cfg.kills)

	start := time.Now()
	h.deadline = start.Add(cfg.duration)
	ctx, cancel := context.WithDeadline(context.Background(), h.deadline)
	defer cancel()

	// Metrics monitor: scrapes /metrics across the tier for the whole
	// storm AND the fairness phase, so the endpoints (and the per-scrape
	// admission conservation law) are exercised under load, not just after.
	mon := newMonitor(h.client, h.gwURL, h.backends)
	monCtx, monCancel := context.WithCancel(context.Background())
	defer monCancel()
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		mon.loop(monCtx, cfg.scrape)
	}()

	killsDone, restartsDone, killErr := 0, 0, error(nil)
	var killedAddrs []string // written by the killer, read after wg.Wait
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // killer
		defer wg.Done()
		rng := rand.New(rand.NewPCG(cfg.seed, 0xdead))
		for k := 0; k < cfg.kills; k++ {
			at := start.Add(cfg.duration * time.Duration(k+1) / time.Duration(cfg.kills+1))
			if !sleepUntil(ctx, at) {
				return
			}
			victim := h.backends[rng.IntN(len(h.backends))]
			killedAddrs = append(killedAddrs, victim.addr)
			if err := h.killAndRestart(victim, rumordBin); err != nil {
				killErr = err
				return
			}
			killsDone++
			restartsDone++
		}
	}()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h.clientLoop(ctx, c)
		}(c)
	}
	wg.Wait()

	// Fairness phase: with the whole tier back up, the greedy flooder
	// and the polite keyed clients contend for the same admission slots.
	var fair *fairnessResult
	var fairInvs []invariant
	if killErr == nil && cfg.fairness > 0 && cfg.greedyWorkers > 0 && cfg.polite > 0 {
		fair, fairInvs = h.runFairness(mon)
	}
	monCancel()
	monWG.Wait()
	elapsed := time.Since(start)

	// Post-storm accounting: gateway counters, backend dedup sums, and
	// one final all-targets metrics scrape the exit invariants read.
	gwStats, gwErr := h.gatewayStats()
	collapsed := h.backendCollapse()
	mon.scrapeAll()
	killed := map[string]bool{}
	for _, a := range killedAddrs {
		killed[a] = true
	}
	invs := mon.checkInvariants(gwStats, gwErr, killsDone, killed, h.observedSources())
	invs = append(invs, fairInvs...)
	failedInvs := 0
	for _, inv := range invs {
		if !inv.OK {
			failedInvs++
		}
	}
	if cfg.metricsOut != "" {
		rep := mon.buildReport(cfg, killsDone, killedAddrs, h.observedSources(), invs, fair)
		if err := writeReport(cfg.metricsOut, rep); err != nil {
			return fmt.Errorf("write %s: %w", cfg.metricsOut, err)
		}
	}

	fmt.Printf("soak: done in %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("requests: total=%d runs=%d dups=%d sweeps=%d streams=%d polls=%d\n",
		h.ctr.total.Load(), h.ctr.runs.Load(), h.ctr.dups.Load(),
		h.ctr.sweeps.Load(), h.ctr.streams.Load(), h.ctr.polls.Load())
	fmt.Printf("verdict: mismatches=%d dropped=%d (client retries=%d, stream truncations retried=%d, poll misses=%d)\n",
		h.ctr.mismatches.Load(), h.ctr.dropped.Load(),
		h.ctr.retriesClient.Load(), h.ctr.truncations.Load(), h.ctr.pollMisses.Load())
	if gwErr == nil {
		fmt.Printf("gateway: requests=%d held=%d retries=%d failovers=%d shed=%d exhausted=%d streamResumes=%d streamReruns=%d\n",
			gwStats.Requests, gwStats.Held, gwStats.Retries, gwStats.Failovers, gwStats.Shed,
			gwStats.Exhausted, gwStats.StreamResumes, gwStats.StreamReruns)
	} else {
		fmt.Printf("gateway: stats unavailable: %v\n", gwErr)
	}
	fmt.Printf("backends: kills=%d restarts=%d dedup+cache collapses (surviving counters)=%d\n",
		killsDone, restartsDone, collapsed)
	if fair != nil {
		fmt.Printf("fairness: greedy completed=%d throttled=%d shed=%d badHints=%d; polite completed=%v dropped=%d\n",
			fair.GreedyCompleted, fair.GreedyThrottled, fair.GreedyShed, fair.BadRetryAfter,
			fair.PoliteCompleted, fair.PoliteDropped)
	}
	fmt.Printf("metrics: %d invariants, %d failed", len(invs), failedInvs)
	if cfg.metricsOut != "" {
		fmt.Printf(" (report: %s)", cfg.metricsOut)
	}
	fmt.Println()
	for _, inv := range invs {
		if !inv.OK {
			fmt.Printf("metrics invariant FAILED: %s: %s\n", inv.Name, inv.Detail)
		} else if cfg.verbose {
			fmt.Printf("metrics invariant ok: %s: %s\n", inv.Name, inv.Detail)
		}
	}
	for _, m := range h.mismatch {
		fmt.Printf("mismatch: %s\n", m)
	}

	switch {
	case killErr != nil:
		return fmt.Errorf("kill/restart schedule failed: %w", killErr)
	case killsDone < cfg.kills:
		return fmt.Errorf("only %d of %d scheduled kills executed", killsDone, cfg.kills)
	case h.ctr.mismatches.Load() > 0:
		return fmt.Errorf("%d responses diverged from the local reference bytes", h.ctr.mismatches.Load())
	case h.ctr.dropped.Load() > 0:
		return fmt.Errorf("%d requests dropped (not served within the %v grace budget)", h.ctr.dropped.Load(), cfg.grace)
	case h.ctr.total.Load() == 0:
		return fmt.Errorf("no requests completed")
	case h.ctr.dups.Load() > 20 && collapsed == 0:
		return fmt.Errorf("duplicate specs never collapsed (dedup+cache hits = 0 across backends)")
	case failedInvs > 0:
		return fmt.Errorf("%d of %d metrics invariants failed", failedInvs, len(invs))
	}
	fmt.Println("soak: PASS — zero drops, every byte identical to the single-process reference, all metrics invariants hold")
	return nil
}

func backendName(i int) string { return "rumord-" + strconv.Itoa(i) }

func buildBinary(dir, name, pkg string) (string, error) {
	out := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build %s: %w", pkg, err)
	}
	return out, nil
}

func sleepUntil(ctx context.Context, at time.Time) bool {
	d := time.Until(at)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (h *harness) awaitGateway() error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := h.client.Get(h.gwURL + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("gateway not healthy within 15s")
}

// killAndRestart SIGKILLs a backend mid-traffic and restarts it on the
// same address, so the ring keyspace it owns comes back warm-addressed.
func (h *harness) killAndRestart(slot *backendSlot, bin string) error {
	name := backendName(slot.index)
	h.sv.mu.Lock()
	p := h.sv.procs[name]
	h.sv.mu.Unlock()
	if p == nil {
		return fmt.Errorf("backend %s not running", name)
	}
	h.sv.logf("KILL %s (%s)", name, slot.addr)
	p.cmd.Process.Kill()
	// The PID is reaped by the waiter awaitPortFile armed; give the OS a
	// beat to release the socket before the restart attempts.
	time.Sleep(h.cfg.down)
	var lastErr error
	for try := 0; try < 20; try++ {
		np, err := h.sv.spawn(name, bin,
			"-addr", slot.addr, "-workers", "2", "-cache", "256")
		if err == nil {
			if np.addr != slot.addr {
				return fmt.Errorf("backend %s restarted on %s, expected %s", name, np.addr, slot.addr)
			}
			h.sv.logf("RESTART %s", name)
			return nil
		}
		lastErr = err
		time.Sleep(250 * time.Millisecond)
	}
	return fmt.Errorf("restart %s: %w", name, lastErr)
}

// gwSnapshot is the gateway's /v1/healthz counter block — compared
// field-for-field against the gateway's own /metrics at exit.
type gwSnapshot struct {
	Requests      int64 `json:"requests"`
	Held          int64 `json:"held"`
	Retries       int64 `json:"retries"`
	Failovers     int64 `json:"failovers"`
	Shed          int64 `json:"shed"`
	Exhausted     int64 `json:"exhausted"`
	StreamResumes int64 `json:"streamResumes"`
	StreamReruns  int64 `json:"streamReruns"`
}

// gatewayStats fetches the gateway's counter snapshot.
func (h *harness) gatewayStats() (stats gwSnapshot, err error) {
	resp, err := h.client.Get(h.gwURL + "/v1/healthz")
	if err != nil {
		return stats, err
	}
	defer resp.Body.Close()
	var body struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return stats, err
	}
	err = json.Unmarshal(body.Stats, &stats)
	return stats, err
}

// backendCollapse sums dedup+cache hits across the currently-running
// backends: proof that identical in-flight and repeated specs collapsed
// instead of simulating N times. (Counters die with killed processes,
// so this is a lower bound.)
func (h *harness) backendCollapse() int64 {
	var sum int64
	for _, b := range h.backends {
		resp, err := h.client.Get("http://" + b.addr + "/v1/healthz")
		if err != nil {
			continue
		}
		var body struct {
			Stats struct {
				DedupHits int64 `json:"dedupHits"`
				CacheHits int64 `json:"cacheHits"`
				SpillHits int64 `json:"spillHits"`
			} `json:"stats"`
		}
		if json.NewDecoder(resp.Body).Decode(&body) == nil {
			sum += body.Stats.DedupHits + body.Stats.CacheHits + body.Stats.SpillHits
		}
		resp.Body.Close()
	}
	return sum
}

// ---- traffic ------------------------------------------------------------

func (h *harness) clientLoop(ctx context.Context, id int) {
	rng := rand.New(rand.NewPCG(h.cfg.seed, uint64(id)+1))
	for ctx.Err() == nil {
		switch pick := rng.IntN(10); {
		case pick < 4:
			h.doRun(ctx, &h.w.runs[rng.IntN(len(h.w.runs))], &h.ctr.runs)
		case pick < 6:
			h.doRun(ctx, &h.w.hot[rng.IntN(len(h.w.hot))], &h.ctr.dups)
		case pick < 7:
			h.doSweep(ctx, &h.w.sweeps[rng.IntN(len(h.w.sweeps))])
		case pick < 9:
			h.doStream(ctx, &h.w.runs[rng.IntN(len(h.w.runs))])
		default:
			h.doPoll(ctx)
		}
	}
}

// retryLoop drives one logical request to completion: transient
// failures (connection errors, 429/502/503, truncated streams) are
// retried — honoring Retry-After on load-shed 503s — until success or
// the per-request grace budget runs out, which counts as a DROP. A
// non-nil verdict error from attempt is a hard failure (wrong bytes or
// an unexpected 4xx) and is never retried.
func (h *harness) retryLoop(ctx context.Context, kind string, attempt func(context.Context) (retryAfter time.Duration, done bool, hard error)) {
	budget := time.Now().Add(h.cfg.grace)
	for {
		retryAfter, done, hard := attempt(ctx)
		if hard != nil {
			h.failf("%s: %v", kind, hard)
			return
		}
		if done {
			h.ctr.total.Add(1)
			return
		}
		if ctx.Err() != nil && time.Now().After(h.deadline.Add(h.cfg.grace)) {
			h.ctr.dropped.Add(1)
			return
		}
		if time.Now().After(budget) {
			h.ctr.dropped.Add(1)
			return
		}
		h.ctr.retriesClient.Add(1)
		if retryAfter <= 0 {
			retryAfter = 100 * time.Millisecond
		}
		time.Sleep(retryAfter)
	}
}

// post issues one POST and classifies the outcome.
func (h *harness) post(ctx context.Context, path string, body []byte) (status int, hdr http.Header, respBody []byte, err error) {
	reqCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, "POST", h.gwURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, b, nil
}

func retryAfterOf(hdr http.Header) time.Duration {
	if s := hdr.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// doRun POSTs a spec and asserts the body is byte-identical to the
// local reference.
func (h *harness) doRun(ctx context.Context, rs *refSpec, ctr *atomic.Int64) {
	h.retryLoop(ctx, "run "+rs.ref.ID[:12], func(ctx context.Context) (time.Duration, bool, error) {
		status, hdr, body, err := h.post(ctx, "/v1/run", rs.body)
		switch {
		case err != nil:
			return 0, false, nil
		case status == http.StatusOK:
			if !bytes.Equal(body, rs.ref.Body) {
				return 0, false, fmt.Errorf("bytes diverged from reference (%d vs %d bytes)", len(body), len(rs.ref.Body))
			}
			ctr.Add(1)
			h.noteSource(hdr)
			h.noteRecent(rs.ref.ID)
			return 0, true, nil
		case status == http.StatusServiceUnavailable, status == http.StatusBadGateway, status == http.StatusTooManyRequests:
			return retryAfterOf(hdr), false, nil
		default:
			return 0, false, fmt.Errorf("unexpected status %d: %s", status, truncate(body))
		}
	})
}

// doSweep POSTs a sweep and asserts the assembled body matches the
// locally assembled reference.
func (h *harness) doSweep(ctx context.Context, rs *refSweep) {
	h.retryLoop(ctx, "sweep "+rs.ref.ID[:12], func(ctx context.Context) (time.Duration, bool, error) {
		status, hdr, body, err := h.post(ctx, "/v1/sweep", rs.body)
		switch {
		case err != nil:
			return 0, false, nil
		case status == http.StatusOK:
			if !bytes.Equal(body, rs.ref.Body) {
				return 0, false, fmt.Errorf("sweep bytes diverged from reference")
			}
			h.ctr.sweeps.Add(1)
			h.noteSource(hdr)
			h.noteRecent(rs.ref.ID)
			return 0, true, nil
		case status == http.StatusServiceUnavailable, status == http.StatusBadGateway, status == http.StatusTooManyRequests:
			return retryAfterOf(hdr), false, nil
		default:
			return 0, false, fmt.Errorf("unexpected sweep status %d: %s", status, truncate(body))
		}
	})
}

// doStream submits a job async and consumes its NDJSON stream through
// the gateway, asserting every frame — across any resume — matches the
// reference stream exactly. A truncated stream (backend died, gateway
// exhausted its attempts) retries from scratch; dedup and caching make
// the retry nearly free.
func (h *harness) doStream(ctx context.Context, rs *refSpec) {
	want := bytes.Join(append(append([][]byte{}, rs.ref.Lines...), rs.ref.Final), nil)
	h.retryLoop(ctx, "stream "+rs.ref.ID[:12], func(ctx context.Context) (time.Duration, bool, error) {
		status, hdr, body, err := h.post(ctx, "/v1/run?wait=0", rs.body)
		if err != nil || status == http.StatusServiceUnavailable || status == http.StatusBadGateway || status == http.StatusTooManyRequests {
			return retryAfterOf(hdr), false, nil
		}
		if status != http.StatusAccepted && status != http.StatusOK {
			return 0, false, fmt.Errorf("async submit status %d: %s", status, truncate(body))
		}
		id := hdr.Get("X-Rumord-Job")
		if id != rs.ref.ID {
			return 0, false, fmt.Errorf("backend minted job %s, reference %s (identity drift)", id, rs.ref.ID)
		}
		reqCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(reqCtx, "GET", h.gwURL+"/v1/jobs/"+id+"/stream", nil)
		if err != nil {
			return 0, false, nil
		}
		resp, err := h.client.Do(req)
		if err != nil {
			return 0, false, nil
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return retryAfterOf(resp.Header), false, nil
		}
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, false, nil
		}
		if bytes.Equal(got, want) {
			h.ctr.streams.Add(1)
			h.noteRecent(id)
			return 0, true, nil
		}
		if bytes.HasPrefix(want, got) {
			// Strict prefix: the stream was truncated mid-flight (no terminal
			// frame). That is a liveness hiccup, not wrong bytes — retry.
			h.ctr.truncations.Add(1)
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("stream bytes diverged from reference")
	})
}

// doPoll GETs the status of a recently completed job. Backends hold
// results in memory only, so after a kill the job may be gone everywhere
// — a 404 is a recorded miss, not a failure.
func (h *harness) doPoll(ctx context.Context) {
	id, ok := h.takeRecent()
	if !ok {
		return
	}
	h.retryLoop(ctx, "poll "+id[:12], func(ctx context.Context) (time.Duration, bool, error) {
		reqCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(reqCtx, "GET", h.gwURL+"/v1/jobs/"+id, nil)
		if err != nil {
			return 0, false, nil
		}
		resp, err := h.client.Do(req)
		if err != nil {
			return 0, false, nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, false, nil
		}
		switch resp.StatusCode {
		case http.StatusOK:
			h.ctr.polls.Add(1)
			return 0, true, nil
		case http.StatusNotFound:
			h.ctr.pollMisses.Add(1)
			h.ctr.polls.Add(1)
			return 0, true, nil
		case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusTooManyRequests:
			return retryAfterOf(resp.Header), false, nil
		default:
			return 0, false, fmt.Errorf("unexpected poll status %d: %s", resp.StatusCode, truncate(body))
		}
	})
}

func (h *harness) noteRecent(id string) {
	h.recentMu.Lock()
	h.recent = append(h.recent, id)
	if len(h.recent) > 64 {
		h.recent = h.recent[len(h.recent)-64:]
	}
	h.recentMu.Unlock()
}

func (h *harness) takeRecent() (string, bool) {
	h.recentMu.Lock()
	defer h.recentMu.Unlock()
	if len(h.recent) == 0 {
		return "", false
	}
	return h.recent[len(h.recent)-1], true
}

func truncate(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
