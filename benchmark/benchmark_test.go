package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaration holds BENCHMARK.json to the limits its readers enforce.
func TestDeclaration(t *testing.T) {
	decl, err := loadDeclaration(filepath.Join("..", declFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", decl.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range decl.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricDecl{}, decl.EndToEnd...), decl.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	setUp := false
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		setUp = setUp || m == metricDecl{Name: "setup_s", Unit: "s", Better: "lower", Bound: m.Bound}
	}
	if !setUp {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range decl.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

// TestDigests: the input digest is a function of the seed alone.
func TestDigests(t *testing.T) {
	decl, err := loadDeclaration(filepath.Join("..", declFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, wd := range decl.Workloads {
		digest := func(seed uint64) string {
			w, err := newWorkload(wd.Name, &env{seed: seed, procs: 2, size: smokeSizing(), log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			return w.digest()
		}
		if a, b := digest(1), digest(1); a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", wd.Name, a, b)
		}
		if a, b := digest(1), digest(2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same digest", wd.Name)
		}
	}
}

// lastLine parses the result line a run ends its standard output with.
func lastLine(t *testing.T, out string) (res resultLine) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestSmoke runs a tiny sizing of every workload, untraced and traced,
// and checks that each run emits exactly the declared metrics, once, with
// their units, after verifying its outputs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts processes")
	}
	t.Chdir("..")
	decl, err := loadDeclaration(declFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, wd := range decl.Workloads {
		for trace, want := range [][]metricDecl{decl.EndToEnd, decl.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{
				"--workload", wd.Name, "--seed", "3", "--seconds", "0.3", "--trace", []string{"0", "1"}[trace],
				"-smoke", "-out", filepath.Join(t.TempDir(), "set.json"),
			}
			if err := realMain(context.Background(), args, &stdout, &stderr); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", wd.Name, trace, err, stderr.String())
			}
			res := lastLine(t, stdout.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", wd.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, %d declared", wd.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", wd.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s has unit %q, declared %q", wd.Name, trace, m.Name, got.Unit, m.Unit)
				}
				// One "workload metric unit value" line per metric.
				if n := strings.Count(stdout.String(), "\n"+wd.Name+" "+m.Name+" "+m.Unit+" "); n != 1 {
					t.Errorf("%s trace=%d: metric %s printed %d times", wd.Name, trace, m.Name, n)
				}
			}
			if trace == 0 && res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s is %g", wd.Name, res.Metrics["setup_s"].Value)
			}
		}
	}
}

// TestWrongBytesFail puts a proxy that flips one byte of every reply
// between the clients and a correct stack: set-up's reference check and
// the measured phase's hash check must both refuse the replies.
func TestWrongBytesFail(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	e := &env{seed: 5, size: smokeSizing(), procs: 2, runDir: t.TempDir(), log: io.Discard}
	w := newServeWorkload(e, true)
	if err := w.prepareHot(); err != nil {
		t.Fatal(err)
	}
	stack, err := startInproc(e.runDir)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.stop()
	runs := w.workingSetRuns()
	ctx := context.Background()
	if err := submitAll(ctx, stack.gwURL, e.procs, runs); err != nil {
		t.Fatalf("the honest stack failed verification: %v", err)
	}

	target, err := url.Parse(stack.gwURL)
	if err != nil {
		t.Fatal(err)
	}
	flip := httputil.NewSingleHostReverseProxy(target)
	flip.ModifyResponse = func(resp *http.Response) error {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		resp.Body.Close()
		body[len(body)/2] ^= 1
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return nil
	}
	liar := httptest.NewServer(flip)
	defer liar.Close()

	if err := submitAll(ctx, liar.URL, e.procs, runs); err == nil {
		t.Error("set-up accepted replies with a flipped byte")
	}
	tallies := runClients(ctx, liar.URL, e.procs, 200*time.Millisecond, func(c, i int) request {
		return w.set[(i*e.procs+c)%len(w.set)].run
	}, nil)
	for c, tally := range tallies {
		if tally.attempted == 0 || tally.failed != tally.attempted {
			t.Errorf("client %d: %d of %d flipped replies failed, want all", c, tally.failed, tally.attempted)
		}
	}
}

// TestVerdicts pins the comparison rule on hand-made samples.
func TestVerdicts(t *testing.T) {
	lower := metricDecl{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "rate", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{70, 130, 85, 115, 100, 60, 140, 90, 110, 100}
	for _, tc := range []struct {
		name string
		m    metricDecl
		a, b []float64
		want string
	}{
		{"same", lower, tight, shift(tight, 1.01), "same"},
		{"worse", lower, tight, shift(tight, 1.2), "worse"},
		{"better", lower, tight, shift(tight, 0.9), "better"},
		{"higher worse", higher, tight, shift(tight, 0.8), "worse"},
		{"higher better", higher, tight, shift(tight, 1.2), "better"},
		{"noisy", lower, wide, shift(wide, 1.05), "unresolved"},
		{"noisy but separated", lower, wide, shift(wide, 0.3), "better"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25 (statistics.quantiles, n=4)", q1, q2, q3)
	}
}
