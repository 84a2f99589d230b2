// Package cas is a directory of immutable files named by content
// address: a 64-character lowercase hex digest plus a fixed extension.
// Both disk tiers sit on it — the serving layer's result spill
// (<id>.json) and the graph store's CSR files (<sha256(key)>.csr) — so
// the rules for publishing, finding, sweeping and dropping a file are
// decided once:
//
//   - names are validated before any path is built, so a hostile ID or
//     key never reaches the filesystem;
//   - a file is published by writing a temp file beside it and renaming
//     it into place, so readers (concurrent, or after a crash) see the
//     whole file or none — and since one name always holds one content,
//     concurrent writers of a name race benignly;
//   - opening the directory sweeps temp files that interrupted writes
//     left behind, once they are old enough to be debris;
//   - a file is dropped only if it is still corrupt when re-checked under
//     the lock publishes take, so a reader that saw torn bytes cannot
//     delete a valid file a writer renamed in meanwhile.
//
// A directory belongs to one process at a time: the resident count
// tracks this process's writes on top of what the open scan found.
package cas

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DebrisAge is how old a leftover .tmp file must be before Open deletes
// it. Genuine debris (an interrupted write from a crashed process) ages
// indefinitely and is collected on a later open; a young .tmp might be an
// in-flight write of another process sharing the directory, which the
// scan must not destroy.
const DebrisAge = 15 * time.Minute

// ErrName rejects a name that is not 64 lowercase hex characters.
var ErrName = errors.New("cas: name is not a 64-character lowercase hex digest")

// Dir is one content-addressed directory: files <dir>/<name><ext>.
type Dir struct {
	dir, ext string
	mu       sync.Mutex   // serializes publish (stat+rename) against Drop's re-check
	writes   atomic.Int64 // files published (including overwrites)
	errors   atomic.Int64 // failed publishes and dropped corrupt files
	resident atomic.Int64 // files present (scanned at Open, then tracked)
}

// Open prepares the directory (creating it if needed), removes .tmp
// debris older than DebrisAge, and counts the resident files: well-formed
// names with the extension ext.
func Open(dir, ext string) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cas: scan: %w", err)
	}
	d := &Dir{dir: dir, ext: ext}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// The rename never happened, so the file was never visible.
			if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > DebrisAge {
				os.Remove(filepath.Join(dir, name))
			}
		case strings.HasSuffix(name, ext) && ValidName(strings.TrimSuffix(name, ext)):
			d.resident.Add(1)
		}
	}
	return d, nil
}

// ValidName reports whether s is a content address: 64 lowercase hex
// characters, the rendering of a SHA-256.
func ValidName(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Path returns the file path for name. Callers validate name first.
func (d *Dir) Path(name string) string { return filepath.Join(d.dir, name+d.ext) }

// Writes, Errors and Resident report the directory's counters: files
// published, failed publishes plus dropped corrupt files, and files
// present.
func (d *Dir) Writes() int64   { return d.writes.Load() }
func (d *Dir) Errors() int64   { return d.errors.Load() }
func (d *Dir) Resident() int64 { return d.resident.Load() }

// Put publishes name with the bytes encode writes. It returns ErrName for
// a malformed name without touching the filesystem; any other failure
// leaves the previous file (if one exists) in place and counts an error.
func (d *Dir) Put(name string, encode func(io.Writer) error) error {
	if !ValidName(name) {
		return ErrName
	}
	dst := d.Path(name)
	err := writeFile(dst, encode, func(tmp string) error {
		// The stat+rename pair runs under the lock so two writers of one
		// name cannot both count it as fresh; the payload write stays
		// unlocked.
		d.mu.Lock()
		defer d.mu.Unlock()
		_, statErr := os.Stat(dst)
		if err := os.Rename(tmp, dst); err != nil {
			return err
		}
		if statErr != nil {
			d.resident.Add(1)
		}
		return nil
	})
	if err != nil {
		d.errors.Add(1)
		return err
	}
	d.writes.Add(1)
	return nil
}

// ReadFile returns name's contents; a malformed name is ErrName.
func (d *Dir) ReadFile(name string) ([]byte, error) {
	if !ValidName(name) {
		return nil, ErrName
	}
	return os.ReadFile(d.Path(name))
}

// Drop removes name's file after a reader found it corrupt, and counts an
// error. corrupt re-checks the file at path under the publish lock — a
// Put may have renamed a valid file into place since the caller read the
// torn one — and the file is removed only if corrupt still says so. A
// check that cannot tell (the file is gone or unreadable) must answer
// false. Corruption is a crash-recovery path; the second read is cheap
// next to recomputing.
func (d *Dir) Drop(name string, corrupt func(path string) bool) {
	if !ValidName(name) {
		return
	}
	d.errors.Add(1)
	path := d.Path(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	if corrupt(path) && os.Remove(path) == nil {
		d.resident.Add(-1)
	}
}

// WriteFile writes path atomically: encode fills a temp file in path's
// directory, which is renamed onto path only once it is complete, so
// concurrent or crashed writers leave the whole file or none.
func WriteFile(path string, encode func(io.Writer) error) error {
	return writeFile(path, encode, func(tmp string) error { return os.Rename(tmp, path) })
}

// writeFile is the one temp-file write under WriteFile and Put: encode
// into <path>.*.tmp, close, then publish — which renames the temp file
// onto path. Any failure removes the temp file.
func writeFile(path string, encode func(io.Writer) error, publish func(tmp string) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = publish(tmp)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
