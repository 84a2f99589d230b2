package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumor"
	"rumor/internal/experiment"
	"rumor/internal/graph"
)

func TestGenerateAndStats(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-spec", "doublestar:8", "-stats", "-validate"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"validation: ok", "vertices   18", "edges      17", "bipartite  true", "diameter   3", "centerA=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")

	var out strings.Builder
	if err := run([]string{"-spec", "ringcliques:3,5", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("no write confirmation:\n%s", out.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run([]string{"-in", path, "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "vertices   15") {
		t.Errorf("import stats wrong:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "6-regular") {
		t.Errorf("regularity lost in round trip:\n%s", out.String())
	}
}

func TestDefaultPrintsStats(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-spec", "star:4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "vertices   5") {
		t.Errorf("default run did not print stats:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                                   // neither -spec nor -in
		{"-spec", "x:1"},                     // unknown family
		{"-in", "/nonexistent/p"},            // missing file
		{"-spec", "star:4", "-in", "/tmp/x"}, // mutually exclusive
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestOneRealizationPerSeed pins the one seed map: for every random family
// and seed, the library facade, graph.FromSpec, a graphgen -seed export
// read back through Decode, and the RunSpec path behind cmd/rumor and
// /v1/run build the same realization, down to the binary CSR bytes.
func TestOneRealizationPerSeed(t *testing.T) {
	dir := t.TempDir()
	for _, spec := range []string{"randreg:64,6", "gnp:120,0.05", "barabasi:90,3", "chunglu:150,2.5,6"} {
		for _, seed := range []uint64{1, 7, 424242} {
			facade, err := rumor.GraphFromSpec(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := csrBytes(t, facade)

			lib, err := graph.FromSpec(spec, seed)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, fmt.Sprintf("%s-%d.g", strings.NewReplacer(":", "_", ",", "_").Replace(spec), seed))
			var out strings.Builder
			if err := run([]string{"-spec", spec, "-seed", fmt.Sprint(seed), "-o", path}, &out); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			exported, err := graph.Decode(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}

			served, _, err := experiment.RunSpec{Graph: spec, GraphSeed: seed}.Build()
			if err != nil {
				t.Fatal(err)
			}

			for name, g := range map[string]*graph.Graph{"graph.FromSpec": lib, "graphgen -o + Decode": exported, "RunSpec.Build": served} {
				if !bytes.Equal(csrBytes(t, g), want) {
					t.Errorf("%s seed %d: %s differs from rumor.GraphFromSpec", spec, seed, name)
				}
			}
		}
	}
}

func csrBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.EncodeCSR(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
