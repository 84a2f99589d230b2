package cas

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	nameA = strings.Repeat("ab", 32)
	nameB = strings.Repeat("0f", 32)
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
}

func openDir(t *testing.T, dir string) *Dir {
	t.Helper()
	d, err := Open(dir, ".dat")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// tmpFiles lists the temp files left in dir.
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCASRejectsHostileNames: anything but 64 lowercase hex characters is
// refused before a path is built, so it can neither write nor read
// outside the directory.
func TestCASRejectsHostileNames(t *testing.T) {
	dir := t.TempDir()
	d := openDir(t, dir)
	for _, name := range []string{"../../etc/passwd", "..", "", "abc", strings.Repeat("g", 64),
		strings.Repeat("A", 64), strings.Repeat("a", 63) + "/", strings.Repeat("a", 65)} {
		if ValidName(name) {
			t.Fatalf("ValidName(%q) = true", name)
		}
		if err := d.Put(name, writeString("x")); !errors.Is(err, ErrName) {
			t.Fatalf("Put(%q) = %v, want ErrName", name, err)
		}
		if _, err := d.ReadFile(name); !errors.Is(err, ErrName) {
			t.Fatalf("ReadFile(%q) = %v, want ErrName", name, err)
		}
		d.Drop(name, func(string) bool { t.Fatalf("Drop(%q) checked a path", name); return true })
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 || d.Resident() != 0 || d.Errors() != 0 {
		t.Fatalf("hostile names left %d files, resident %d, errors %d", len(entries), d.Resident(), d.Errors())
	}
	if !ValidName(nameA) || !ValidName(nameB) {
		t.Fatal("a SHA-256 rendering is not a valid name")
	}
}

// TestCASPutCountsFreshAndOverwrites: a fresh name adds a resident, an
// overwrite does not, every publish is a write, and the bytes land at
// Path(name) with no temp file left behind.
func TestCASPutCountsFreshAndOverwrites(t *testing.T) {
	dir := t.TempDir()
	d := openDir(t, dir)
	for i, s := range []string{"one", "two"} {
		if err := d.Put(nameA, writeString(s)); err != nil {
			t.Fatal(err)
		}
		if b, err := d.ReadFile(nameA); err != nil || string(b) != s {
			t.Fatalf("put %d: read %q, %v; want %q", i, b, err, s)
		}
	}
	if err := d.Put(nameB, writeString("three")); err != nil {
		t.Fatal(err)
	}
	if d.Writes() != 3 || d.Resident() != 2 || d.Errors() != 0 {
		t.Fatalf("writes %d resident %d errors %d, want 3 2 0", d.Writes(), d.Resident(), d.Errors())
	}
	if got, want := d.Path(nameA), filepath.Join(dir, nameA+".dat"); got != want {
		t.Fatalf("Path = %s, want %s", got, want)
	}
	if tmps := tmpFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left: %v", tmps)
	}
}

// TestCASPutFailureKeepsPrevious: an encode error or a rename that cannot
// happen publishes nothing, leaves the previous file and no temp file,
// and counts an error.
func TestCASPutFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	d := openDir(t, dir)
	if err := d.Put(nameA, writeString("good")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := d.Put(nameA, func(w io.Writer) error { io.WriteString(w, "torn"); return boom }); !errors.Is(err, boom) {
		t.Fatalf("Put = %v, want the encode error", err)
	}
	if b, _ := d.ReadFile(nameA); string(b) != "good" {
		t.Fatalf("failed Put replaced the file: %q", b)
	}
	// A directory squatting on the path: the rename fails.
	if err := os.Mkdir(d.Path(nameB), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(nameB, writeString("x")); err == nil {
		t.Fatal("Put over a directory succeeded")
	}
	if d.Writes() != 1 || d.Errors() != 2 || d.Resident() != 1 {
		t.Fatalf("writes %d errors %d resident %d, want 1 2 1", d.Writes(), d.Errors(), d.Resident())
	}
	if tmps := tmpFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left: %v", tmps)
	}
}

// TestCASConcurrentPutsOneResident: writers racing on one name all
// publish, and the name is counted resident once. Run under -race.
func TestCASConcurrentPutsOneResident(t *testing.T) {
	d := openDir(t, t.TempDir())
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.Put(nameA, writeString("same bytes")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if d.Writes() != writers || d.Resident() != 1 {
		t.Fatalf("writes %d resident %d, want %d 1", d.Writes(), d.Resident(), writers)
	}
}

// TestCASOpenSweepsDebris: Open removes temp files older than DebrisAge,
// keeps younger ones (another process may be mid-write), and counts only
// well-formed names with the directory's extension as residents.
func TestCASOpenSweepsDebris(t *testing.T) {
	dir := t.TempDir()
	aged := filepath.Join(dir, nameA+".dat.123.tmp")
	fresh := filepath.Join(dir, nameB+".dat.456.tmp")
	for _, f := range []string{aged, fresh, filepath.Join(dir, nameA+".dat"), filepath.Join(dir, nameB+".other"),
		filepath.Join(dir, "notahash.dat")} {
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-DebrisAge - time.Minute)
	if err := os.Chtimes(aged, old, old); err != nil {
		t.Fatal(err)
	}
	d := openDir(t, dir)
	if _, err := os.Stat(aged); !os.IsNotExist(err) {
		t.Fatalf("aged temp file survived the scan: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file was swept: %v", err)
	}
	if d.Resident() != 1 {
		t.Fatalf("resident = %d, want 1", d.Resident())
	}
}

// TestCASOpenFailure: a directory that cannot be created is an error.
func TestCASOpenFailure(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(blocked, "sub"), ".dat"); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
}

// TestCASDropRechecks: Drop counts an error but removes the file only if
// the re-check still finds it corrupt, and a file already gone is not
// counted out twice.
func TestCASDropRechecks(t *testing.T) {
	dir := t.TempDir()
	d := openDir(t, dir)
	if err := d.Put(nameA, writeString("valid now")); err != nil {
		t.Fatal(err)
	}
	d.Drop(nameA, func(path string) bool {
		if path != d.Path(nameA) {
			t.Fatalf("re-check got %s", path)
		}
		return false // a writer replaced the torn bytes meanwhile
	})
	if _, err := os.Stat(d.Path(nameA)); err != nil || d.Resident() != 1 {
		t.Fatalf("a file the re-check found valid was dropped: %v, resident %d", err, d.Resident())
	}
	d.Drop(nameA, func(string) bool { return true })
	if _, err := os.Stat(d.Path(nameA)); !os.IsNotExist(err) || d.Resident() != 0 {
		t.Fatalf("corrupt file kept: %v, resident %d", err, d.Resident())
	}
	d.Drop(nameA, func(string) bool { return true })
	if d.Resident() != 0 || d.Errors() != 3 {
		t.Fatalf("resident %d errors %d after dropping a missing file, want 0 3", d.Resident(), d.Errors())
	}
}

// TestCASWriteFileAtomic: WriteFile publishes to any path, and a failed
// encode leaves the previous contents and no temp file.
func TestCASWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "side.bin")
	if err := WriteFile(path, writeString("first")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(w io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("WriteFile = %v, want the encode error", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "first" {
		t.Fatalf("read %q, %v; want the first write", b, err)
	}
	if err := WriteFile(filepath.Join(dir, "missing", "x"), writeString("x")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
	if tmps := tmpFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left: %v", tmps)
	}
}
