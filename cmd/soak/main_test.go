package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSoakSmoke runs a miniature soak — real gateway and backend
// processes, real SIGKILL, byte-checked traffic — small enough for the
// unit-test tier. The CI soak-smoke job runs the full-size version.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds binaries; skipped in -short")
	}
	cfg := defaultConfig()
	cfg.backends = 2
	cfg.clients = 3
	cfg.kills = 1
	cfg.duration = 6 * time.Second
	cfg.down = 300 * time.Millisecond
	cfg.grace = 15 * time.Second
	cfg.metricsOut = filepath.Join(t.TempDir(), "SOAK_METRICS.json")
	if err := run(cfg); err != nil {
		t.Fatalf("soak: %v", err)
	}
	// The metrics report must exist, parse, and record a passing run
	// with at least one mid-run scrape per target.
	b, err := os.ReadFile(cfg.metricsOut)
	if err != nil {
		t.Fatalf("metrics report: %v", err)
	}
	var rep soakReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("metrics report parse: %v", err)
	}
	if !rep.Pass {
		t.Fatalf("metrics report records failed invariants: %+v", rep.Invariants)
	}
	if rep.GatewayScrapes == 0 {
		t.Fatal("no mid-run gateway scrapes recorded")
	}
	if len(rep.BackendState) != cfg.backends {
		t.Fatalf("report covers %d backends, want %d", len(rep.BackendState), cfg.backends)
	}
}

// TestWorkloadReferences: every precomputed workload entry carries a
// non-empty reference with a terminal frame — the oracle the storm
// verifies against must itself be well-formed.
func TestWorkloadReferences(t *testing.T) {
	w, err := buildWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.runs) == 0 || len(w.hot) == 0 || len(w.sweeps) == 0 {
		t.Fatalf("workload empty: %d runs, %d hot, %d sweeps", len(w.runs), len(w.hot), len(w.sweeps))
	}
	for _, rs := range w.runs {
		if rs.ref.ID == "" || len(rs.ref.Body) == 0 || len(rs.ref.Final) == 0 {
			t.Fatalf("run reference incomplete: %+v", rs.ref.ID)
		}
	}
	for _, sw := range w.sweeps {
		if sw.ref.ID == "" || len(sw.ref.Body) == 0 || len(sw.ref.Final) == 0 {
			t.Fatalf("sweep reference incomplete: %+v", sw.ref.ID)
		}
	}
}

// TestCheckPoll: a done poll that embeds a result passes only with the
// reference result; a queued or running poll, or a done one whose result
// has not reached the backend's store yet, has nothing to check; a failed
// or undecodable poll is a hard failure.
func TestCheckPoll(t *testing.T) {
	want := []byte(`{"rounds":3}` + "\n")
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"job":"j","status":"done","result":{"rounds":3}}`, true},
		{`{"job":"j","status":"done","result":{"rounds":4}}`, false},
		{`{"job":"j","status":"done"}`, true},
		{`{"job":"j","status":"queued"}`, true},
		{`{"job":"j","status":"running","emitted":1}`, true},
		{`{"job":"j","status":"failed","error":"boom"}`, false},
		{`not json`, false},
	} {
		if err := checkPoll([]byte(tc.body), want); (err == nil) != tc.ok {
			t.Errorf("checkPoll(%s) = %v, want ok %v", tc.body, err, tc.ok)
		}
	}
}
