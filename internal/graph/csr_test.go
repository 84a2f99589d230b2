package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestCSRRoundTrip(t *testing.T) {
	for _, spec := range deterministicSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			g := mustStream(spec)
			raw := encodeCSRBytes(t, g)
			// DecodeCSR aliases raw on little-endian hosts; keep raw alive
			// and unmodified for the decoded graph's lifetime.
			d, err := DecodeCSR(raw)
			if err != nil {
				t.Fatalf("DecodeCSR: %v", err)
			}
			assertGraphsEqual(t, g, d)
			// The decoded graph must re-encode to the same bytes:
			// encoding is deterministic and lossless.
			if !bytes.Equal(raw, encodeCSRBytes(t, d)) {
				t.Fatal("re-encoded CSR differs from original bytes")
			}
		})
	}
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("shape differs: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	if sanitizeName(a.Name()) != b.Name() && a.Name() != b.Name() {
		t.Fatalf("name differs: %q vs %q", a.Name(), b.Name())
	}
	for v := 0; v < a.N(); v++ {
		an, bn := a.Neighbors(Vertex(v)), b.Neighbors(Vertex(v))
		if len(an) != len(bn) {
			t.Fatalf("degree of %d differs: %d vs %d", v, len(an), len(bn))
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("neighbors of %d differ at %d: %d vs %d", v, i, an[i], bn[i])
			}
		}
	}
	an, bn := a.LandmarkNames(), b.LandmarkNames()
	if len(an) != len(bn) {
		t.Fatalf("landmark count differs: %v vs %v", an, bn)
	}
	for i, name := range an {
		if bn[i] != name {
			t.Fatalf("landmark names differ: %v vs %v", an, bn)
		}
		av, _ := a.Landmark(name)
		bv, _ := b.Landmark(name)
		if av != bv {
			t.Fatalf("landmark %q differs: %d vs %d", name, av, bv)
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("decoded graph invalid: %v", err)
	}
}

func TestCSRFileRoundTrip(t *testing.T) {
	g := Star(257)
	path := filepath.Join(t.TempDir(), "star.csr")
	if err := WriteCSRFile(g, path); err != nil {
		t.Fatalf("WriteCSRFile: %v", err)
	}
	m, err := OpenCSRFile(path)
	if err != nil {
		t.Fatalf("OpenCSRFile: %v", err)
	}
	assertGraphsEqual(t, g, m)
	if !m.MmapBacked() {
		// Non-unix fallbacks load to heap; on linux/darwin the graph must
		// actually be mmap-backed.
		t.Log("graph not mmap-backed (heap fallback platform)")
	}
	// Reopening must work repeatedly: the store reopens graphs across
	// "process restarts" without rewriting the file.
	m2, err := OpenCSRFile(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	assertGraphsEqual(t, g, m2)
}

func TestCSRWideOffsets(t *testing.T) {
	// Force the 64-bit offset path without allocating 2^32 endpoints:
	// build a small graph, then rebuild its offsets wide via the store
	// constructor, exercising encode/decode for both widths.
	g := Complete(9)
	wide := &Graph{
		off:       offsetStore{o64: make([]int64, g.N()+1)},
		neighbors: g.neighbors,
		name:      g.name,
		landmarks: g.landmarks,
	}
	for i := 0; i <= g.N(); i++ {
		wide.off.set(i, g.off.at(i))
	}
	if !wide.off.wide() || wide.OffsetWidth() != 8 {
		t.Fatal("wide store not wide")
	}
	raw := encodeCSRBytes(t, wide)
	d, err := DecodeCSR(raw)
	if err != nil {
		t.Fatal(err)
	}
	if d.OffsetWidth() != 8 {
		t.Fatalf("decoded width %d, want 8", d.OffsetWidth())
	}
	assertGraphsEqual(t, g, d)
}

func TestDecodeCSRRejectsCorrupt(t *testing.T) {
	g := Cycle(12)
	raw := encodeCSRBytes(t, g)

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad-version", func(b []byte) []byte { b[8] = 99; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"extended", func(b []byte) []byte { return append(b, 0) }},
		{"huge-n", func(b []byte) []byte { b[19] = 0xff; return b }},
		{"offsets-mismatch", func(b []byte) []byte {
			// First offset must be zero; make it nonzero.
			b[csrHeaderSize] = 1
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mut(append([]byte(nil), raw...))
			if _, err := DecodeCSR(mutated); err == nil {
				t.Error("corrupt CSR accepted")
			}
		})
	}
}

func TestDecodeCSRRejectsBadLandmark(t *testing.T) {
	g := mustStream(StreamSpec{
		N: 3, M: 2, Name: "t",
		Emit:      func(_ int, emit func(u, v Vertex)) { emit(0, 1); emit(1, 2) },
		Landmarks: map[string]Vertex{"x": 2},
	})
	raw := encodeCSRBytes(t, g)
	// The landmark vertex is the last 4 bytes; point it out of range.
	raw[len(raw)-4] = 0xff
	raw[len(raw)-3] = 0xff
	raw[len(raw)-2] = 0xff
	raw[len(raw)-1] = 0x7f
	if _, err := DecodeCSR(raw); err == nil {
		t.Error("out-of-range landmark accepted")
	}
}

func TestOpenCSRFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenCSRFile(filepath.Join(dir, "missing.csr")); err == nil {
		t.Error("missing file accepted")
	}
	garbage := filepath.Join(dir, "garbage.csr")
	if err := os.WriteFile(garbage, []byte("not a csr file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCSRFile(garbage); err == nil {
		t.Error("garbage file accepted")
	}
}

func TestWriteCSRFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr")
	if err := WriteCSRFile(Path(5), path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a different graph; readers must see one or the other,
	// never a torn file — after the write, only the new content.
	if err := WriteCSRFile(Cycle(8), path); err != nil {
		t.Fatal(err)
	}
	g, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 || g.M() != 8 {
		t.Fatalf("got n=%d m=%d after overwrite, want 8,8", g.N(), g.M())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestMemoryCostAccounting(t *testing.T) {
	g := Star(1000)
	inMem := g.MemoryCost()
	if inMem < g.CSRBytes() {
		t.Fatalf("in-memory cost %d below CSR size %d", inMem, g.CSRBytes())
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := WriteCSRFile(g, path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.MmapBacked() && m.MemoryCost() >= inMem {
		t.Fatalf("mmap-backed cost %d not below in-memory cost %d", m.MemoryCost(), inMem)
	}
	if g.OffsetWidth() != 4 {
		t.Fatalf("small graph uses %d-byte offsets", g.OffsetWidth())
	}
}
