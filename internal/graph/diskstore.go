package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"sync/atomic"

	"rumor/internal/cas"
)

// Store is a content-addressed on-disk tier for graphs.
//
// Deterministic families are pure functions of their canonical spec
// string, so the spec is the identity: a graph is encoded once into
// <dir>/<sha256(spec)>.csr and every later request — in this process or
// the next — reopens the file read-only via mmap instead of rebuilding.
// Random families are pure functions of (canonical spec, sampler seed,
// sampler version) — the replayable edge-stream samplers guarantee it —
// so their realizations spill under SeededKey, which bakes all three
// into the key: distinct seeds get distinct files, and a sampler
// algorithm change (a RandomSamplerVersion bump) can never be served a
// stale realization from an older generation.
// Hashing the key keeps hostile or merely awkward spec strings (slashes,
// dots, multi-kilobyte params) from steering the path.
//
// Only graphs at or above the spill threshold go to disk: small graphs
// rebuild in microseconds and would pay the encode round-trip for
// nothing, while a giant graph's CSR moves off the Go heap entirely —
// the mmap'd pages are file cache the kernel reclaims under pressure.
// The directory is a cas.Dir, the same store the serving layer's result
// spill uses: writes are atomic (temp file + rename), so concurrent
// builders of the same graph race benignly — both write identical bytes
// and one rename wins — and NewStore sweeps the temp files a crash
// mid-write leaves behind once they are cas.DebrisAge old.
type Store struct {
	dir       *cas.Dir
	threshold int64
	opens     atomic.Int64 // spilled CSR files reopened mmap-backed
	builds    atomic.Int64 // graphs built because no valid file existed
}

// NewStore opens (creating if needed) a graph store rooted at dir.
// Graphs whose CSR is at least thresholdBytes spill to disk; smaller
// graphs stay heap-resident. thresholdBytes <= 0 disables spilling (the
// store still opens previously spilled files).
func NewStore(dir string, thresholdBytes int64) (*Store, error) {
	d, err := cas.Open(dir, ".csr")
	if err != nil {
		return nil, fmt.Errorf("graph: store: %w", err)
	}
	return &Store{dir: d, threshold: thresholdBytes}, nil
}

// Stats reports the store's lifetime counters: mmap-backed opens of
// spilled files, builds invoked on store misses, and successful spill
// writes.
func (s *Store) Stats() (opens, builds, spills int64) {
	return s.opens.Load(), s.builds.Load(), s.dir.Writes()
}

// Path returns the content-addressed file path for a canonical spec key.
func (s *Store) Path(key string) string { return s.dir.Path(storeName(key)) }

// storeName is a key's content address: hex(sha256(key)).
func storeName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// GetOrBuild returns the graph identified by key. A valid spilled file is
// reopened mmap-backed without invoking build; otherwise the graph is
// built, and if it crosses the spill threshold it is encoded to disk and
// reopened from the mapping so the heap copy can be collected. Disk
// failures (full volume, torn file, revoked permissions, no file
// descriptors) degrade to the in-memory graph — the store is an
// optimization tier, never a correctness dependency. Only a file whose
// bytes were mapped and failed to decode is deleted; one that could not
// be opened or mapped is left in place and not overwritten.
func (s *Store) GetOrBuild(key string, build func() (*Graph, error)) (*Graph, error) {
	name := storeName(key)
	path := s.dir.Path(name)
	g, corrupt, err := openCSR(path)
	if err == nil {
		s.opens.Add(1)
		return g, nil
	}
	if corrupt {
		// A torn write from a crash or a format revision: drop it (if a
		// concurrent builder has not replaced it meanwhile) and rebuild.
		s.dir.Drop(name, func(path string) bool {
			_, corrupt, _ := openCSR(path)
			return corrupt
		})
	}
	spill := corrupt || errors.Is(err, fs.ErrNotExist)
	if g, err = build(); err != nil {
		return nil, err
	}
	s.builds.Add(1)
	if !spill || s.threshold <= 0 || g.CSRBytes() < s.threshold {
		return g, nil
	}
	if s.dir.Put(name, g.EncodeCSR) != nil {
		return g, nil
	}
	if m, _, err := openCSR(path); err == nil {
		s.opens.Add(1)
		return m, nil
	}
	return g, nil
}
