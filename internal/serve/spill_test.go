package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rumor/internal/experiment"
)

// spillSpec renders the i-th distinct spec of the eviction ladder.
func spillSpec(i int) string {
	return fmt.Sprintf(`{"graph":"star:%d","protocol":"visitx","trials":3,"seed":11}`, 16+8*i)
}

// TestSpillReplayAcrossRestart is the end-to-end disk-tier guarantee:
// fill the LRU past capacity so early entries spill, restart the server
// on the same data dir, and every evicted job replays byte-identical
// from disk with zero recomputation — while never-evicted (memory-only)
// jobs recompute to the same bytes. Runs under -race in CI.
func TestSpillReplayAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const total, cap = 5, 2
	// One shard so cap is a strict global LRU bound: inserting specs
	// 0..4 leaves {3,4} resident and spills {0,1,2} in order.
	opts := Options{Workers: 2, CacheSize: cap, Shards: 1, DataDir: dir}

	first, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.Handler())
	bodies := make([][]byte, total)
	streams := make([]string, total)
	jobs := make([]string, total)
	for i := 0; i < total; i++ {
		code, hdr, b := postRun(t, ts, spillSpec(i))
		if code != 200 {
			t.Fatalf("spec %d: status %d body %s", i, code, b)
		}
		bodies[i] = b
		jobs[i] = hdr.Get("X-Rumord-Job")
		streams[i] = strings.Join(streamLines(t, ts, jobs[i]), "\n")
	}
	// A response can overtake the write of the eviction its completion
	// displaced (file I/O is off the waiters' path), so wait for the last
	// file.
	waitUntil(t, "evictions on disk", func() bool {
		st := first.Stats()
		return st.SpillWrites == total-cap && st.SpillLen == total-cap
	})
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Restart on the same data dir: memory is cold, disk is not.
	second, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(second.Handler())
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := second.Shutdown(ctx); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
	}()
	if n := second.SpillLen(); n != total-cap {
		t.Fatalf("startup scan found %d spilled results, want %d", n, total-cap)
	}
	for i := 0; i < total-cap; i++ {
		code, hdr, b := postRun(t, ts2, spillSpec(i))
		if code != 200 {
			t.Fatalf("restart spec %d: status %d body %s", i, code, b)
		}
		if src := hdr.Get("X-Rumord-Source"); src != "disk" {
			t.Fatalf("restart spec %d served from %q, want disk", i, src)
		}
		if !bytes.Equal(b, bodies[i]) {
			t.Fatalf("restart spec %d body differs from the original run", i)
		}
		if got := strings.Join(streamLines(t, ts2, jobs[i]), "\n"); got != streams[i] {
			t.Fatalf("restart spec %d stream replay differs from the original", i)
		}
	}
	// Replaying the evicted entries must not have simulated anything.
	if st := second.Stats(); st.Simulations != 0 || st.SpillHits < total-cap {
		t.Fatalf("disk replays ran %d simulations (spillHits=%d), want 0", st.Simulations, st.SpillHits)
	}
	// The never-evicted entries were memory-only: they recompute — to the
	// same bytes — and the simulation count is pinned to exactly those.
	for i := total - cap; i < total; i++ {
		code, hdr, b := postRun(t, ts2, spillSpec(i))
		if code != 200 || hdr.Get("X-Rumord-Source") != "run" {
			t.Fatalf("restart spec %d: status %d source %q, want a fresh run", i, code, hdr.Get("X-Rumord-Source"))
		}
		if !bytes.Equal(b, bodies[i]) {
			t.Fatalf("restart spec %d recompute differs from the original", i)
		}
	}
	if st := second.Stats(); st.Simulations != cap {
		t.Fatalf("restart ran %d simulations, want exactly the %d never-spilled specs", st.Simulations, cap)
	}
}

// TestSpillPromotionAndIdempotence: a disk hit is promoted back into the
// memory LRU (second read is a cache hit), and the promotion's own
// eviction re-spills identical bytes.
func TestSpillPromotionAndIdempotence(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, CacheSize: 1, Shards: 1, DataDir: dir})
	code, _, fresh := postRun(t, ts, spillSpec(0))
	if code != 200 {
		t.Fatalf("fresh: %d %s", code, fresh)
	}
	if code, _, _ := postRun(t, ts, spillSpec(1)); code != 200 { // evicts 0 to disk
		t.Fatal("evictor failed")
	}
	// Until 0's file is in place a repeat is served from the shard's write
	// buffer, which is a disk-sourced reply but not a spill read.
	waitUntil(t, "eviction on disk", func() bool { return s.Stats().SpillWrites == 1 })
	code, hdr, b := postRun(t, ts, spillSpec(0)) // disk hit, promotes (evicts 1)
	if code != 200 || hdr.Get("X-Rumord-Source") != "disk" {
		t.Fatalf("status %d source %q, want disk", code, hdr.Get("X-Rumord-Source"))
	}
	if !bytes.Equal(b, fresh) {
		t.Fatal("disk replay differs from fresh bytes")
	}
	code, hdr, b = postRun(t, ts, spillSpec(0)) // now resident again
	if code != 200 || hdr.Get("X-Rumord-Source") != "cache" {
		t.Fatalf("promoted entry: status %d source %q, want cache", code, hdr.Get("X-Rumord-Source"))
	}
	if !bytes.Equal(b, fresh) {
		t.Fatal("promoted replay differs from fresh bytes")
	}
	if st := s.Stats(); st.Simulations != 2 || st.SpillHits != 1 {
		t.Fatalf("stats %+v: want 2 simulations, 1 spill hit", st)
	}
}

// TestEvictedStaysFindable closes the eviction window: from the instant
// the LRU displaces a payload until its spill file is in place, find
// (and so a repeat submission) must still resolve it — never a miss that
// re-simulates. The test holds the window open by evicting under the
// shard lock, as complete does, and withholding the write.
func TestEvictedStaysFindable(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, CacheSize: 1, Shards: 1, DataDir: t.TempDir()})
	code, hdr, fresh := postRun(t, ts, spillSpec(0))
	if code != 200 {
		t.Fatalf("fresh: %d %s", code, fresh)
	}
	victim := hdr.Get("X-Rumord-Job")
	sh := s.store.shardFor(victim)
	sh.mu.Lock()
	evicted := sh.put(strings.Repeat("ab", 32), &completedJob{resp: []byte("{}\n"), final: []byte("{}\n"), trials: 1})
	sh.mu.Unlock()
	if len(evicted) != 1 || evicted[0].id != victim {
		t.Fatalf("put evicted %v, want the victim", evicted)
	}

	if _, c, src, ok := s.store.find(victim, false); !ok || src != sourceDisk || !bytes.Equal(c.resp, fresh) {
		t.Fatalf("find mid-eviction: ok=%v source=%q", ok, src)
	}
	code, hdr, b := postRun(t, ts, spillSpec(0))
	if code != 200 || hdr.Get("X-Rumord-Source") != "disk" || !bytes.Equal(b, fresh) {
		t.Fatalf("repeat mid-eviction: status %d source %q", code, hdr.Get("X-Rumord-Source"))
	}
	if st := s.Stats(); st.Simulations != 1 || st.SpillHits != 0 {
		t.Fatalf("repeat mid-eviction: %d simulations, %d spill reads; want 1 and 0", st.Simulations, st.SpillHits)
	}

	s.store.spillEvicted(sh, evicted)
	sh.mu.Lock()
	parked := len(sh.pending)
	sh.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d evictions still parked after their writes returned", parked)
	}
	if c, ok := s.store.spill.read(victim); !ok || !bytes.Equal(c.resp, fresh) {
		t.Fatal("victim not on disk after its write returned")
	}
}

// TestSpillRejectsHostileIDs: lookup with path metacharacters must not
// touch the filesystem outside the data dir (and must simply miss).
func TestSpillRejectsHostileIDs(t *testing.T) {
	sp, err := openSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"../../etc/passwd", "..", "", "abc", strings.Repeat("g", 64), strings.Repeat("A", 64)} {
		if _, ok := sp.read(id); ok {
			t.Fatalf("hostile id %q produced a hit", id)
		}
		sp.write(id, &completedJob{resp: []byte("{}\n"), final: []byte("{}\n")})
	}
	if n := sp.dir.Resident(); n != 0 {
		t.Fatalf("hostile writes left %d files", n)
	}
}

// TestSpillCorruptEntryRecovery: a torn/corrupt spill file is counted by
// the startup scan, then detected on read, removed exactly once, and
// reported as a miss so the job recomputes.
func TestSpillCorruptEntryRecovery(t *testing.T) {
	dir := t.TempDir()
	id := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := openSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := sp.dir.Resident(); n != 1 {
		t.Fatalf("scan counted %d residents, want 1 (corruption detected lazily)", n)
	}
	if _, ok := sp.read(id); ok {
		t.Fatal("corrupt entry produced a hit")
	}
	if n := sp.dir.Resident(); n != 0 {
		t.Fatalf("resident = %d after corrupt read, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".json")); !os.IsNotExist(err) {
		t.Fatalf("corrupt file not removed: %v", err)
	}
	// A second read is a plain miss with no double-decrement.
	if _, ok := sp.read(id); ok {
		t.Fatal("removed entry produced a hit")
	}
	if n := sp.dir.Resident(); n != 0 {
		t.Fatalf("resident = %d after second read, want 0", n)
	}
	// A rewrite makes the id readable again.
	sp.write(id, &completedJob{resp: []byte("{}\n"), final: []byte("{\"done\":true}\n"), trials: 1})
	if c, ok := sp.read(id); !ok || string(c.final) != "{\"done\":true}\n" {
		t.Fatal("rewritten entry not readable")
	}
	if n := sp.dir.Resident(); n != 1 {
		t.Fatalf("resident = %d after rewrite, want 1", n)
	}
}

// TestSpillIgnoresEarlierSamplerGenerations is the regression for result
// identities that left out the sampler generation: a result spilled under
// the identity an earlier generation gave a random spec ("rumord/v1|" plus
// the canonical JSON, before the generation joined the key) must never be
// served. A fresh server on that data dir recomputes the reference bytes.
func TestSpillIgnoresEarlierSamplerGenerations(t *testing.T) {
	const req = `{"graph":"chunglu:300,2.5,8","protocol":"push-pull","trials":3,"seed":5}`
	spec := experiment.DefaultRunSpec()
	if err := json.Unmarshal([]byte(req), &spec); err != nil {
		t.Fatal(err)
	}
	ref, err := ComputeReference(spec)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append([]byte("rumord/v1|"), norm.CanonicalJSON()...))
	stale := hex.EncodeToString(sum[:])
	if stale == ref.ID {
		t.Fatal("the job ID does not depend on the sampler generation")
	}

	dir := t.TempDir()
	sp, err := openSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	planted := []byte("{\"planted\":true}\n")
	sp.write(stale, &completedJob{resp: planted, final: planted, trials: 1})
	if _, ok := sp.read(stale); !ok {
		t.Fatal("planted spill file unreadable")
	}

	s, ts := newTestServer(t, Options{Workers: 1, DataDir: dir})
	code, hdr, body := postRun(t, ts, req)
	if code != 200 {
		t.Fatalf("status %d body %s", code, body)
	}
	if src := hdr.Get("X-Rumord-Source"); src != "run" {
		t.Fatalf("served from %q, want a fresh run", src)
	}
	if !bytes.Equal(body, ref.Body) {
		t.Fatalf("body %q is not the reference bytes", body)
	}
	if st := s.Stats(); st.Simulations != 1 || st.SpillHits != 0 {
		t.Fatalf("%d simulations, %d spill reads; want 1 and 0", st.Simulations, st.SpillHits)
	}
}

// TestSpillReadsParentLayout pins the on-disk layout: an entry written by
// hand as <id>.json in the format every earlier version of the tier used
// (base64 bytes under trials/resp/lines/final) is counted at startup and
// served from disk as the reference bytes, with nothing simulated.
func TestSpillReadsParentLayout(t *testing.T) {
	const req = `{"graph":"star:40","protocol":"push","trials":3,"seed":9}`
	spec := experiment.DefaultRunSpec()
	if err := json.Unmarshal([]byte(req), &spec); err != nil {
		t.Fatal(err)
	}
	ref, err := ComputeReference(spec)
	if err != nil {
		t.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString
	lines := make([]string, len(ref.Lines))
	for i, l := range ref.Lines {
		lines[i] = `"` + b64(l) + `"`
	}
	entry := fmt.Sprintf(`{"trials":3,"resp":"%s","lines":[%s],"final":"%s"}`,
		b64(ref.Body), strings.Join(lines, ","), b64(ref.Final))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ref.ID+".json"), []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Options{Workers: 1, DataDir: dir})
	if n := s.SpillLen(); n != 1 {
		t.Fatalf("startup scan found %d entries, want 1", n)
	}
	code, hdr, body := postRun(t, ts, req)
	if code != 200 || hdr.Get("X-Rumord-Source") != "disk" {
		t.Fatalf("status %d source %q, want 200 from disk", code, hdr.Get("X-Rumord-Source"))
	}
	if !bytes.Equal(body, ref.Body) {
		t.Fatalf("body %q is not the reference bytes", body)
	}
	want := make([]string, 0, len(ref.Lines)+1)
	for _, l := range append(ref.Lines, ref.Final) {
		want = append(want, strings.TrimSuffix(string(l), "\n"))
	}
	if got := streamLines(t, ts, ref.ID); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stream replay %q differs from the reference %q", got, want)
	}
	if st := s.Stats(); st.Simulations != 0 || st.SpillHits != 1 {
		t.Fatalf("%d simulations, %d spill reads; want 0 and 1", st.Simulations, st.SpillHits)
	}
}
