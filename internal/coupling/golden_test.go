package coupling

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/coupling_golden.json from the current coupling")

// couplingGoldenPath is the committed record of coupled realizations.
var couplingGoldenPath = filepath.Join("testdata", "coupling_golden.json")

// recordCouplings digests every field of the Section 5 coupling (with the
// visit-count history) and of the Section 6 odd/even coupling, for three
// seeds on each of three graphs.
func recordCouplings(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, spec := range []string{"star:40", "heavytree:5", "hypercube:6"} {
		g, err := graph.FromSpec(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			r, err := Run(g, 0, xrand.New(seed), Config{RecordZ: true})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			fmt.Fprintf(h, "%d %d\n%v\n%v\n%v\n%v\n%v\n", r.TVisitx, r.TPush, r.TV, r.Tau, r.C, r.Parent, r.ZHist)
			out[fmt.Sprintf("%s/coupled/seed=%d", spec, seed)] = hex.EncodeToString(h.Sum(nil))

			oe, err := RunOddEven(g, 0, xrand.New(seed), Config{})
			if err != nil {
				t.Fatal(err)
			}
			h = sha256.New()
			fmt.Fprintf(h, "%d %d\n%v\n%v\n", oe.TPush, oe.TVisitx, oe.Tau, oe.TV)
			out[fmt.Sprintf("%s/oddeven/seed=%d", spec, seed)] = hex.EncodeToString(h.Sum(nil))
		}
	}
	return out
}

// TestGoldenCoupling pins both couplings' outcomes against
// testdata/coupling_golden.json. `go test -run TestGoldenCoupling -update`
// rewrites the file, which a behaviour-preserving change never needs.
func TestGoldenCoupling(t *testing.T) {
	got := recordCouplings(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(couplingGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(couplingGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(couplingGoldenPath)
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
