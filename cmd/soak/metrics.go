package main

// Metrics-side soak assertions: while the storm runs, a monitor
// goroutine scrapes GET /metrics from the gateway and every backend on
// an interval (exercising the endpoints under kill-driven load and
// proving they parse); after the storm, a final scrape feeds the exit
// invariants — counter conservation, agreement with /v1/healthz,
// kill-coverage of ejection/failover counters, zero error counters, and
// populated per-protocol latency histograms — and everything is written
// to a SOAK_METRICS.json report.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"rumor/internal/experiment"
	"rumor/internal/metrics"
)

// monitor scrapes /metrics across the tier. Mid-run scrape failures
// against a killed backend are expected and skipped; anything that
// answers must answer 200 with parseable exposition text, so a non-200
// or a parse error is recorded as a violation.
type monitor struct {
	client *http.Client
	gwURL  string
	slots  []*backendSlot

	mu       sync.Mutex
	gwOK     int64
	beOK     map[string]int64 // backend addr -> successful scrapes
	gw       *metrics.Scrape  // latest gateway parse
	be       map[string]*metrics.Scrape
	badText  []string // capped: non-200s and parse failures
	badCount int64

	// admission conservation, checked on EVERY successful gateway scrape:
	// submitted == accepted + throttled + shed + canceled + queue
	// occupancy, exact, because the gateway renders all admission series
	// from one snapshot per exposition.
	admChecked  int64
	admBadCount int64
	admBad      []string // capped violation samples
}

func newMonitor(client *http.Client, gwURL string, slots []*backendSlot) *monitor {
	return &monitor{
		client: client, gwURL: gwURL, slots: slots,
		beOK: map[string]int64{}, be: map[string]*metrics.Scrape{},
	}
}

// loop scrapes every target each interval until ctx expires — the
// "during the run" half of the assertion, proving /metrics stays
// servable while backends are being SIGKILLed around it.
func (m *monitor) loop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.scrapeAll()
		}
	}
}

func (m *monitor) scrapeAll() {
	m.scrapeGateway()
	for _, s := range m.slots {
		m.scrapeBackend(s.addr)
	}
}

func (m *monitor) scrapeGateway() {
	sc, err := m.scrapeOne(m.gwURL + "/metrics")
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.noteBadLocked("gateway", err)
		return
	}
	m.gwOK++
	m.gw = sc
	m.admChecked++
	if detail, ok := admissionConserved(sc); !ok {
		m.admBadCount++
		if len(m.admBad) < 10 {
			m.admBad = append(m.admBad, detail)
		}
	}
}

// admissionConserved checks the admission conservation law on one
// gateway scrape. Counters sum across classes; the queue-occupancy gauge
// closes the books on submissions still held.
func admissionConserved(sc *metrics.Scrape) (string, bool) {
	sub := int64(sc.Sum("rumorgw_admission_submitted_total"))
	acc := int64(sc.Sum("rumorgw_admission_accepted_total"))
	thr := int64(sc.Sum("rumorgw_admission_throttled_total"))
	shed := int64(sc.Sum("rumorgw_admission_shed_total"))
	can := int64(sc.Sum("rumorgw_admission_canceled_total"))
	occ := int64(sc.Sum("rumorgw_admission_queue_occupancy"))
	if sub != acc+thr+shed+can+occ {
		return fmt.Sprintf("submitted=%d != accepted=%d + throttled=%d + shed=%d + canceled=%d + queue=%d",
			sub, acc, thr, shed, can, occ), false
	}
	return "", true
}

func (m *monitor) scrapeBackend(addr string) {
	sc, err := m.scrapeOne("http://" + addr + "/metrics")
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		// A refused connection is a killed backend, not a metrics bug.
		if !isConnErr(err) {
			m.noteBadLocked(addr, err)
		}
		return
	}
	m.beOK[addr]++
	m.be[addr] = sc
}

func (m *monitor) noteBadLocked(target string, err error) {
	m.badCount++
	if len(m.badText) < 10 {
		m.badText = append(m.badText, fmt.Sprintf("%s: %v", target, err))
	}
}

func isConnErr(err error) bool {
	s := err.Error()
	return strings.Contains(s, "connection refused") ||
		strings.Contains(s, "connection reset") ||
		strings.Contains(s, "EOF")
}

// scrapeOne fetches and parses one exposition payload.
func (m *monitor) scrapeOne(url string) (*metrics.Scrape, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return metrics.ParseText(resp.Body)
}

// invariant is one exit assertion with its outcome, both printed and
// persisted in the report.
type invariant struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// protocol label values the per-protocol histogram assertions cover.
func protoLabels() []string {
	ps := experiment.Protos()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = string(p)
	}
	return out
}

// checkInvariants runs the post-storm metric assertions over the final
// scrapes. killed marks backend addresses that lost their counters to a
// SIGKILL at least once — counter-vs-observed checks skip those, since
// a restart legally resets every process-local counter.
func (m *monitor) checkInvariants(gwStats gwSnapshot, gwErr error, killsDone int, killed map[string]bool, observed map[string]map[string]int64) []invariant {
	m.mu.Lock()
	defer m.mu.Unlock()
	var invs []invariant
	add := func(name string, ok bool, format string, args ...any) {
		invs = append(invs, invariant{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}

	// Every target must have answered /metrics at least once while the
	// storm ran, and nothing it ever answered may have been malformed.
	allScraped := m.gwOK > 0
	var scrapeDetail []string
	scrapeDetail = append(scrapeDetail, fmt.Sprintf("gateway=%d", m.gwOK))
	for _, s := range m.slots {
		if m.beOK[s.addr] == 0 {
			allScraped = false
		}
		scrapeDetail = append(scrapeDetail, fmt.Sprintf("%s=%d", s.addr, m.beOK[s.addr]))
	}
	add("scrapes-during-run", allScraped, "successful scrapes: %s", strings.Join(scrapeDetail, " "))
	add("scrapes-well-formed", m.badCount == 0, "%d malformed or non-200 scrapes %v", m.badCount, m.badText)

	// Admission conservation must have held on every gateway scrape taken
	// while traffic (and kills) were in flight — not just the final one.
	add("admission-conservation-per-scrape", m.admChecked > 0 && m.admBadCount == 0,
		"checked on %d scrapes, %d violations %v", m.admChecked, m.admBadCount, m.admBad)

	// Final scrapes exist for everything (the killer restarts every
	// victim, so the whole tier is up once traffic stops).
	finalOK := m.gw != nil
	for _, s := range m.slots {
		if m.be[s.addr] == nil {
			finalOK = false
		}
	}
	add("final-scrape-complete", finalOK, "gateway=%v backends=%d/%d", m.gw != nil, len(m.be), len(m.slots))
	if !finalOK {
		return invs // everything below reads the final scrapes
	}

	// Gateway /metrics and /v1/healthz are two views of the same atomics;
	// with traffic stopped they must agree exactly.
	if gwErr != nil {
		add("gateway-metrics-match-healthz", false, "healthz unavailable: %v", gwErr)
	} else {
		want := map[string]int64{
			"rumorgw_requests_total":       gwStats.Requests,
			"rumorgw_held_replies_total":   gwStats.Held,
			"rumorgw_retries_total":        gwStats.Retries,
			"rumorgw_failovers_total":      gwStats.Failovers,
			"rumorgw_shed_total":           gwStats.Shed,
			"rumorgw_exhausted_total":      gwStats.Exhausted,
			"rumorgw_stream_resumes_total": gwStats.StreamResumes,
			"rumorgw_stream_reruns_total":  gwStats.StreamReruns,
		}
		var diffs []string
		names := make([]string, 0, len(want))
		for n := range want {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if got := int64(m.gw.Sum(n)); got != want[n] {
				diffs = append(diffs, fmt.Sprintf("%s=%d healthz=%d", n, got, want[n]))
			}
		}
		add("gateway-metrics-match-healthz", len(diffs) == 0, "diffs: %v", diffs)
	}

	// Conservation: every submission a backend ever accepted or refused
	// is attributed to exactly one source or one rejection reason. This
	// is internal consistency, so it holds on restarted backends too.
	var broken []string
	for _, s := range m.slots {
		sc := m.be[s.addr]
		req := int64(sc.Sum("rumord_requests_total"))
		src := int64(sc.Sum("rumord_requests_by_source_total"))
		rej := int64(sc.Sum("rumord_submit_rejections_total"))
		if req != src+rej {
			broken = append(broken, fmt.Sprintf("%s: requests=%d sources=%d rejections=%d", s.addr, req, src, rej))
		}
	}
	add("backend-conservation", len(broken) == 0, "requests_total == by_source + rejections on every backend %v", broken)

	// Cache-source consistency: each 200 the client saw with
	// X-Rumorgw-Backend=B and X-Rumord-Source=s incremented B's source
	// counter, so observed[B][s] <= counter (the counter also absorbs
	// retries whose responses never reached the client). Only meaningful
	// for backends that kept their counters all run.
	var srcDiffs []string
	checked := 0
	for addr, bySrc := range observed {
		if killed[addr] {
			continue
		}
		sc := m.be[addr]
		if sc == nil {
			continue
		}
		checked++
		for src, n := range bySrc {
			counter, _ := sc.Value("rumord_requests_by_source_total", map[string]string{"source": src})
			if int64(counter) < n {
				srcDiffs = append(srcDiffs, fmt.Sprintf("%s source=%s counter=%d observed=%d", addr, src, int64(counter), n))
			}
		}
	}
	add("source-headers-vs-counters", len(srcDiffs) == 0,
		"observed X-Rumord-Source counts <= counters on %d never-killed backends %v", checked, srcDiffs)

	// Duplicate-spec traffic replays the same jobs again and again, so the
	// gateway must have answered some of them from held replies. (Held
	// replies carry no backend or source header, so they never enter the
	// check above; their bodies are byte-checked like every other.)
	held := int64(m.gw.Sum("rumorgw_held_replies_total"))
	add("held-replies", held > 0, "rumorgw_held_replies_total=%d after the duplicate-spec traffic", held)

	// Each SIGKILL must surface in the gateway's failure machinery: the
	// checker ejects the dead backend, and in-flight or freshly-routed
	// requests fail over around the ring.
	ejections := int64(m.gw.Sum("rumorgw_backend_ejections_total"))
	add("ejections-cover-kills", ejections >= int64(killsDone), "ejections=%d kills=%d", ejections, killsDone)
	failovers := int64(m.gw.Sum("rumorgw_failovers_total"))
	add("failovers-cover-kills", failovers >= int64(killsDone), "failovers=%d kills=%d", failovers, killsDone)

	// Nothing in the tier may have hit an internal error path.
	var errCounters []string
	for _, s := range m.slots {
		sc := m.be[s.addr]
		for _, n := range []string{"rumord_internal_errors_total", "rumord_failures_total", "rumord_spill_errors_total"} {
			if v := sc.Sum(n); v != 0 {
				errCounters = append(errCounters, fmt.Sprintf("%s %s=%d", s.addr, n, int64(v)))
			}
		}
	}
	add("zero-error-counters", len(errCounters) == 0, "nonzero: %v", errCounters)

	// Per-protocol simulation-latency histograms: structurally valid on
	// every backend for every protocol (pre-registered children), and
	// populated somewhere in the tier for every protocol the workload
	// exercises (all of them).
	var histBroken []string
	protoCount := map[string]int64{}
	for _, s := range m.slots {
		sc := m.be[s.addr]
		for _, p := range protoLabels() {
			c, err := sc.CheckHistogram("rumord_simulation_seconds", map[string]string{"protocol": p})
			if err != nil {
				histBroken = append(histBroken, fmt.Sprintf("%s: %v", s.addr, err))
				continue
			}
			protoCount[p] += c
		}
	}
	var unpopulated []string
	for _, p := range protoLabels() {
		if protoCount[p] == 0 {
			unpopulated = append(unpopulated, p)
		}
	}
	add("protocol-histograms-valid", len(histBroken) == 0, "CheckHistogram on every backend x protocol %v", histBroken)
	add("protocol-histograms-populated", len(unpopulated) == 0, "per-protocol sim counts %v; empty: %v", fmtCounts(protoCount), unpopulated)

	// Gateway route latency histograms: valid for every route, populated
	// for the routes the storm drives hard.
	var routeBroken []string
	for _, route := range []string{"run", "sweep", "job", "stream"} {
		if _, err := m.gw.CheckHistogram("rumorgw_request_seconds", map[string]string{"route": route}); err != nil {
			routeBroken = append(routeBroken, err.Error())
		}
	}
	runCount, _ := m.gw.CheckHistogram("rumorgw_request_seconds", map[string]string{"route": "run"})
	add("gateway-route-histograms", len(routeBroken) == 0 && runCount > 0,
		"4 routes valid %v; route=run count=%d", routeBroken, runCount)

	return invs
}

func fmtCounts(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}

// ---- report -------------------------------------------------------------

type backendReport struct {
	Killed         bool             `json:"killed"`
	Requests       int64            `json:"requests"`
	BySource       map[string]int64 `json:"bySource"`
	Rejections     map[string]int64 `json:"rejections"`
	Simulations    int64            `json:"simulations"`
	Failures       int64            `json:"failures"`
	InternalErrors int64            `json:"internalErrors"`
	SimCounts      map[string]int64 `json:"simCounts"` // histogram _count per protocol
	Scrapes        int64            `json:"scrapes"`
}

type soakReport struct {
	Backends       int                         `json:"backends"`
	Clients        int                         `json:"clients"`
	Duration       string                      `json:"duration"`
	Kills          int                         `json:"kills"`
	KilledAddrs    []string                    `json:"killedAddrs"`
	GatewayScrapes int64                       `json:"gatewayScrapes"`
	Gateway        map[string]int64            `json:"gateway"`
	BackendState   map[string]*backendReport   `json:"backendMetrics"`
	Observed       map[string]map[string]int64 `json:"observedSources"`
	Fairness       *fairnessResult             `json:"fairness,omitempty"`
	Invariants     []invariant                 `json:"invariants"`
	Pass           bool                        `json:"pass"`
}

// buildReport assembles the persisted SOAK_METRICS.json document from
// the final scrapes plus the invariant outcomes.
func (m *monitor) buildReport(cfg config, killsDone int, killedAddrs []string, observed map[string]map[string]int64, invs []invariant, fair *fairnessResult) *soakReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	killed := map[string]bool{}
	for _, a := range killedAddrs {
		killed[a] = true
	}
	rep := &soakReport{
		Backends: cfg.backends, Clients: cfg.clients, Duration: cfg.duration.String(),
		Kills: killsDone, KilledAddrs: killedAddrs,
		GatewayScrapes: m.gwOK,
		Gateway:        map[string]int64{},
		BackendState:   map[string]*backendReport{},
		Observed:       observed,
		Fairness:       fair,
		Invariants:     invs,
		Pass:           true,
	}
	for _, inv := range invs {
		if !inv.OK {
			rep.Pass = false
		}
	}
	if m.gw != nil {
		for _, n := range []string{
			"rumorgw_requests_total", "rumorgw_held_replies_total", "rumorgw_held_bytes",
			"rumorgw_retries_total", "rumorgw_failovers_total",
			"rumorgw_shed_total", "rumorgw_exhausted_total",
			"rumorgw_stream_resumes_total", "rumorgw_stream_reruns_total",
			"rumorgw_backend_ejections_total", "rumorgw_backend_readmissions_total",
			"rumorgw_ring_backends", "rumorgw_healthy_backends",
			"rumorgw_admission_submitted_total", "rumorgw_admission_accepted_total",
			"rumorgw_admission_throttled_total", "rumorgw_admission_shed_total",
			"rumorgw_admission_canceled_total", "rumorgw_admission_queued_total",
		} {
			rep.Gateway[n] = int64(m.gw.Sum(n))
		}
	}
	for _, s := range m.slots {
		br := &backendReport{
			Killed:     killed[s.addr],
			BySource:   map[string]int64{},
			Rejections: map[string]int64{},
			SimCounts:  map[string]int64{},
			Scrapes:    m.beOK[s.addr],
		}
		rep.BackendState[s.addr] = br
		sc := m.be[s.addr]
		if sc == nil {
			continue
		}
		br.Requests = int64(sc.Sum("rumord_requests_total"))
		br.Simulations = int64(sc.Sum("rumord_simulations_total"))
		br.Failures = int64(sc.Sum("rumord_failures_total"))
		br.InternalErrors = int64(sc.Sum("rumord_internal_errors_total"))
		for _, src := range sc.LabelValues("rumord_requests_by_source_total", "source") {
			v, _ := sc.Value("rumord_requests_by_source_total", map[string]string{"source": src})
			br.BySource[src] = int64(v)
		}
		for _, reason := range sc.LabelValues("rumord_submit_rejections_total", "reason") {
			v, _ := sc.Value("rumord_submit_rejections_total", map[string]string{"reason": reason})
			br.Rejections[reason] = int64(v)
		}
		for _, p := range protoLabels() {
			if c, err := sc.CheckHistogram("rumord_simulation_seconds", map[string]string{"protocol": p}); err == nil {
				br.SimCounts[p] = c
			}
		}
	}
	return rep
}

func writeReport(path string, rep *soakReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
