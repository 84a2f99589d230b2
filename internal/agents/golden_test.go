package agents

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/walks_golden.json from the current walk system")

// walkGoldenPath is the committed record of walk trajectories.
var walkGoldenPath = filepath.Join("testdata", "walks_golden.json")

const (
	walkGoldenSeed   = 20190729
	walkGoldenTrials = 3
	walkGoldenRounds = 30
)

// walkGoldenSpecs mix a star (degree 1 against a hub), a heavy tree, a
// power-of-two regular graph, a seeded random graph with no isolated
// vertex, a seeded random regular graph of power-of-two degree and a path
// (every degree a power of two, yet not regular); each has more than one
// 512-agent block.
var walkGoldenSpecs = []string{"star:600", "heavytree:9", "hypercube:10", "gnp:700,0.02", "randreg:700,8", "path:700"}

// walkCase is one configuration of the record.
type walkCase struct {
	key string // spec/lazy/churn/placement, without the trial
	g   *graph.Graph
	cfg Config
}

func walkGoldenCases(t testing.TB) []walkCase {
	t.Helper()
	var out []walkCase
	for _, spec := range walkGoldenSpecs {
		g, err := graph.FromSpec(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if g.MinDegree() == 0 {
			t.Fatalf("%s has an isolated vertex", spec)
		}
		n := g.N()
		fixed := make([]graph.Vertex, n/2+3)
		for i := range fixed {
			fixed[i] = graph.Vertex((i * 7919) % n)
		}
		for _, lazy := range []bool{false, true} {
			for _, churn := range []float64{0, 0.05} {
				for _, pl := range []struct {
					name string
					cfg  Config
				}{
					{"stationary", Config{Count: n + 37}},
					{"one-per-vertex", Config{Count: n, Placement: PlaceOnePerVertex}},
					{"fixed", Config{Count: len(fixed), Placement: PlaceFixed, Fixed: fixed}},
				} {
					cfg := pl.cfg
					cfg.Lazy, cfg.ChurnRate = lazy, churn
					out = append(out, walkCase{fmt.Sprintf("%s/lazy=%v/churn=%g/%s", spec, lazy, churn, pl.name), g, cfg})
				}
			}
		}
	}
	return out
}

// hashRound appends one round of a walk lane — its positions and its
// respawn list — to h.
func hashRound(h hash.Hash, round int, pos []graph.Vertex, resp []int) {
	fmt.Fprintf(h, "round %d\n", round)
	var b [4]byte
	for _, p := range pos {
		b[0], b[1], b[2], b[3] = byte(p), byte(p>>8), byte(p>>16), byte(p>>24)
		h.Write(b[:])
	}
	fmt.Fprintf(h, "\nrespawned %v\n", resp)
}

// recordWalks digests every trial of every case — the placement, then each
// round's positions and respawn list — stepping trials walkGoldenTrials at
// a time as the lanes of one system of width k.
func recordWalks(t *testing.T, k int) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, c := range walkGoldenCases(t) {
		for t0 := 0; t0 < walkGoldenTrials; t0 += k {
			rngs := make([]*xrand.RNG, min(k, walkGoldenTrials-t0))
			for i := range rngs {
				rngs[i] = xrand.New(xrand.TrialSeed(walkGoldenSeed, t0+i))
			}
			w, err := NewBatched(c.g, c.cfg, rngs)
			if err != nil {
				t.Fatalf("%s: %v", c.key, err)
			}
			hs := make([]hash.Hash, len(rngs))
			for i := range hs {
				hs[i] = sha256.New()
				hashRound(hs[i], 0, w.Lane(i), nil)
			}
			for r := 1; r <= walkGoldenRounds; r++ {
				w.Step(nil)
				for i, h := range hs {
					hashRound(h, r, w.Lane(i), w.Respawned(i))
				}
			}
			for i, h := range hs {
				out[fmt.Sprintf("%s/trial=%d", c.key, t0+i)] = hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	return out
}

// TestGoldenWalks pins walk trajectories — positions and respawn lists,
// round by round — for simple and lazy walks, with and without churn,
// under every placement, against testdata/walks_golden.json, which was
// recorded from the serial walk system this package used to have: here,
// one-lane systems stepped inline. `go test -run TestGoldenWalks -update`
// rewrites the file, which a behaviour-preserving change never needs.
func TestGoldenWalks(t *testing.T) {
	if *updateGolden {
		writeGolden(t, walkGoldenPath, recordWalks(t, 1))
		return
	}
	checkGolden(t, walkGoldenPath, recordWalks(t, 1))
}

// TestBatchedWalksMatchSerial: every lane of a three-lane system traces
// exactly the trajectory the serial walk system recorded for its trial
// RNG (testdata/walks_golden.json).
func TestBatchedWalksMatchSerial(t *testing.T) {
	checkGolden(t, walkGoldenPath, recordWalks(t, 3))
}

func writeGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func checkGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %.12s, recorded %.12s", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in the record", k)
		}
	}
}
