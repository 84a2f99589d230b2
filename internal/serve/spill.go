package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"rumor/internal/cas"
)

// spill is the persistent result tier under the completed-result LRU:
// when the memory cache evicts a successful payload, its canonical bytes
// are written to a content-addressed file (the job ID — already a
// SHA-256 of the canonical request — is the file name), and lookups fall
// through memory → disk before recomputing. Because the stored bytes are
// the exact response and stream frames a fresh run produced, a disk
// replay is byte-identical to the original — across LRU churn and across
// server restarts on the same directory. Publishing, debris sweeping,
// corrupt-file removal and the write/error/resident counters are the
// content-addressed directory's (internal/cas); this file owns the entry
// format.
//
// The tier is best-effort durable: a write failure loses nothing but the
// shortcut (the engines recompute bit-identical bytes), so errors are
// counted, not fatal.
type spill struct {
	dir        *cas.Dir
	writeBytes atomic.Int64 // payload bytes persisted
	hits       atomic.Int64 // lookups served from disk
	readBytes  atomic.Int64 // payload bytes replayed from disk
}

// spillEntry is the on-disk form of a completedJob. []byte fields
// round-trip through base64 exactly, so a loaded entry replays the
// original bytes verbatim.
type spillEntry struct {
	Trials int      `json:"trials"`
	Points int      `json:"points,omitempty"`
	Resp   []byte   `json:"resp"`
	Lines  [][]byte `json:"lines"`
	Final  []byte   `json:"final"`
}

// openSpill opens the tier rooted at dir (see cas.Open: the startup scan
// sweeps aged-out temp files and counts the resident entries cmd/rumord
// logs).
//
// A data dir belongs to one server process at a time: the resident
// count (and so SpillLen) tracks only this process's writes, and
// concurrent replicas should each get their own directory — a shared
// result tier behind a router is a follow-on (ROADMAP).
func openSpill(dir string) (*spill, error) {
	d, err := cas.Open(dir, ".json")
	if err != nil {
		return nil, fmt.Errorf("serve: spill: %w", err)
	}
	return &spill{dir: d}, nil
}

// write persists a completed payload under its job ID. Failures are
// deterministic to recompute; only successful payloads earn a disk slot.
func (sp *spill) write(id string, c *completedJob) {
	if c.failed() {
		return
	}
	b, err := json.Marshal(spillEntry{
		Trials: c.trials, Points: c.points, Resp: c.resp, Lines: c.lines, Final: c.final,
	})
	if err != nil {
		// completedJob has no unmarshalable fields; this cannot happen.
		panic(fmt.Sprintf("serve: marshal spill entry: %v", err))
	}
	if sp.dir.Put(id, func(w io.Writer) error { _, err := w.Write(b); return err }) == nil {
		sp.writeBytes.Add(int64(len(b)))
	}
}

// decodeSpill parses a spill file; ok is false for a corrupt one (a torn
// disk, a foreign file).
func decodeSpill(b []byte) (spillEntry, bool) {
	var e spillEntry
	if err := json.Unmarshal(b, &e); err != nil || len(e.Final) == 0 {
		return e, false
	}
	return e, true
}

// read loads the payload spilled for id, if any. Corrupt entries are
// dropped and reported as misses — the job recomputes bit-identically.
func (sp *spill) read(id string) (*completedJob, bool) {
	b, err := sp.dir.ReadFile(id)
	if err != nil {
		return nil, false
	}
	e, ok := decodeSpill(b)
	if !ok {
		sp.dir.Drop(id, func(path string) bool {
			b, err := os.ReadFile(path)
			if err != nil {
				return false // already gone
			}
			_, ok := decodeSpill(b)
			return !ok
		})
		return nil, false
	}
	sp.hits.Add(1)
	sp.readBytes.Add(int64(len(b)))
	return &completedJob{
		resp: e.Resp, lines: e.Lines, final: e.Final, trials: e.Trials, points: e.Points,
	}, true
}
