package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rumor/internal/cas"
)

func TestStoreSpillsAndReopens(t *testing.T) {
	st, err := NewStore(filepath.Join(t.TempDir(), "graphs"), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Star(500)
	builds := 0
	build := func() (*Graph, error) { builds++; return Star(500), nil }

	g1, err := st.GetOrBuild("star:500", build)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, want, g1)
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	if opens, builds, spills := st.Stats(); opens != 1 || builds != 1 || spills != 1 {
		t.Fatalf("stats after the cold build: opens %d builds %d spills %d, want 1 1 1", opens, builds, spills)
	}
	if _, err := os.Stat(st.Path("star:500")); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}

	// Second request must come from disk, not the builder — this is the
	// cross-restart replay seam: a fresh process with the same data dir
	// takes this path.
	g2, err := st.GetOrBuild("star:500", func() (*Graph, error) {
		t.Fatal("rebuilt a spilled graph")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, want, g2)
	if opens, builds, spills := st.Stats(); opens != 2 || builds != 1 || spills != 1 {
		t.Fatalf("stats after the reopen: opens %d builds %d spills %d, want 2 1 1", opens, builds, spills)
	}
}

func TestStoreThresholdKeepsSmallGraphsInMemory(t *testing.T) {
	st, err := NewStore(filepath.Join(t.TempDir(), "graphs"), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	g, err := st.GetOrBuild("path:9", func() (*Graph, error) { return Path(9), nil })
	if err != nil {
		t.Fatal(err)
	}
	if g.MmapBacked() {
		t.Fatal("small graph spilled despite threshold")
	}
	if _, err := os.Stat(st.Path("path:9")); !os.IsNotExist(err) {
		t.Fatalf("spill file exists for under-threshold graph: %v", err)
	}
}

func TestStoreDisabledThreshold(t *testing.T) {
	st, err := NewStore(filepath.Join(t.TempDir(), "graphs"), 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := st.GetOrBuild("cycle:6", func() (*Graph, error) { return Cycle(6), nil })
	if err != nil {
		t.Fatal(err)
	}
	if g.MmapBacked() {
		t.Fatal("spilled with spilling disabled")
	}
}

func TestStoreRecoversFromCorruptFile(t *testing.T) {
	st, err := NewStore(filepath.Join(t.TempDir(), "graphs"), 1)
	if err != nil {
		t.Fatal(err)
	}
	path := st.Path("cycle:12")
	if err := os.WriteFile(path, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := st.GetOrBuild("cycle:12", func() (*Graph, error) { return Cycle(12), nil })
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, Cycle(12), g)
	// The rebuilt graph must have replaced the corrupt file with a valid one.
	if _, err := OpenCSRFile(path); err != nil {
		t.Fatalf("spill file still corrupt after rebuild: %v", err)
	}
}

func TestStoreBuildErrorPropagates(t *testing.T) {
	st, err := NewStore(filepath.Join(t.TempDir(), "graphs"), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := os.ErrInvalid
	if _, err := st.GetOrBuild("bad", func() (*Graph, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if _, err := os.Stat(st.Path("bad")); !os.IsNotExist(err) {
		t.Fatal("file written for failed build")
	}
}

func TestStoreHostileKeysStayInDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "graphs")
	st, err := NewStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../escape", "a/b/c", "", "star:1\x00"} {
		p := st.Path(key)
		if filepath.Dir(p) != dir {
			t.Fatalf("key %q maps outside the store: %s", key, p)
		}
	}
}

func TestStoreDirCreationFailure(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(filepath.Join(blocked, "graphs"), 1); err == nil {
		t.Fatal("store created under a regular file")
	}
}

// TestStoreKeepsUnopenableFile: a file at Path(key) that cannot be opened
// or mapped — here a directory, which opens but does not mmap; in
// production EACCES, EMFILE or ENOMEM — says nothing about its bytes. The
// store must build in memory and leave it in place, never delete it.
func TestStoreKeepsUnopenableFile(t *testing.T) {
	st, err := NewStore(filepath.Join(t.TempDir(), "graphs"), 1)
	if err != nil {
		t.Fatal(err)
	}
	path := st.Path("cycle:12")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	g, err := st.GetOrBuild("cycle:12", func() (*Graph, error) { return Cycle(12), nil })
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, Cycle(12), g)
	if info, err := os.Stat(path); err != nil || !info.IsDir() {
		t.Fatalf("unopenable entry was removed or replaced: %v", err)
	}
	if _, _, spills := st.Stats(); spills != 0 {
		t.Fatalf("spilled over an unopenable entry (%d writes)", spills)
	}
}

// TestStoreSweepsTempDebris: a crash mid-spill leaves a temp file beside
// the store's files. NewStore removes it once it is cas.DebrisAge old and
// keeps a younger one, which may be another process's write in flight.
func TestStoreSweepsTempDebris(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "graphs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	aged := filepath.Join(dir, ".csr.123.tmp") // the name an earlier writer used
	fresh := filepath.Join(dir, storeName("star:9")+".csr.456.tmp")
	for _, f := range []string{aged, fresh} {
		if err := os.WriteFile(f, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-cas.DebrisAge - time.Minute)
	if err := os.Chtimes(aged, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(dir, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(aged); !os.IsNotExist(err) {
		t.Fatalf("aged temp file survived NewStore: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file was swept: %v", err)
	}
}

// TestStoreReadsParentLayout pins the on-disk layout: a CSR written by
// hand to <dir>/<hex(sha256(key))>.csr, as every earlier version of the
// store named it, reopens mmap-backed with no build.
func TestStoreReadsParentLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "graphs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	const key = "hypercube:6"
	sum := sha256.Sum256([]byte(key))
	f, err := os.Create(filepath.Join(dir, hex.EncodeToString(sum[:])+".csr"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Hypercube(6).EncodeCSR(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := st.GetOrBuild(key, func() (*Graph, error) {
		t.Fatal("built a graph whose file was on disk")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, Hypercube(6), g)
	if !g.MmapBacked() {
		t.Fatal("reopened graph is not mmap-backed")
	}
	if opens, builds, _ := st.Stats(); opens != 1 || builds != 0 {
		t.Fatalf("opens %d builds %d, want 1 0", opens, builds)
	}
}
