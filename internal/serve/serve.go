// Package serve turns the simulator into a long-running service: an
// HTTP/JSON API over canonicalized experiment.RunSpec requests, with
// request deduplication, result caching, bounded concurrency, and
// streaming per-trial results.
//
// # Request identity
//
// Every request is normalized (experiment.RunSpec.Normalize) and reduced
// to a canonical JSON encoding whose SHA-256 is the job ID. Two requests
// that mean the same simulation — differing only in field order, spec
// whitespace, numeric rendering, or knobs the protocol ignores — get the
// same ID. That identity drives everything downstream:
//
//   - singleflight dedup: N identical in-flight requests share one
//     simulation (the job table holds one Job per ID);
//   - result caching: completed payloads land in a size-bounded LRU keyed
//     by the same ID, so repeats are served without simulating;
//   - determinism: the engines are bit-deterministic for a given spec, so
//     a fresh, deduplicated, or cached response for the same ID is
//     byte-identical — pinned by the end-to-end tests.
//
// # Store tiers
//
// The job table and the completed-result LRU are sharded by job-hash
// prefix (see store.go), so intake and lookup from concurrent clients
// take per-shard locks instead of serializing server-wide. Below memory
// sits an optional disk tier (Options.DataDir, see spill.go): payloads
// the LRU evicts are written to content-addressed files, and lookups
// fall through memory → disk → recompute. Disk replays are the original
// bytes, so the byte-identity guarantee extends across evictions and
// server restarts.
//
// # Execution model
//
// Accepted jobs enter a bounded queue consumed by a fixed worker pool
// sized to the machine (each simulation spreads its own trials over the
// processors, one trial per processor at a time, so a small number of
// workers saturates the cores; no round is ever split). Every
// simulation — run and sweep points alike, all five protocols — executes
// on core's trial pool (core.RunManyEmit), where a trial's result depends
// on its seed alone, never on the pool's width, so the response bytes
// this layer caches and replays never depend on the machine. Trial
// results are emitted in strict trial order as the engines complete them
// (core's EmitFunc contract) and appended to the job as pre-marshaled
// NDJSON frames; GET /v1/jobs/{id}/stream replays the
// frames and follows live. Sweeps are planned cache-aware (see
// planner.go): only cross-product points missing from every store tier
// are scheduled, yet the assembled response and stream are byte-identical
// to a cold sweep. Shutdown stops intake (503) and drains queued and
// running jobs without dropping results.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rumor/internal/core"
	"rumor/internal/experiment"
	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/stats"
)

// keyPrefix versions the request-identity scheme: bump it when the
// canonical encoding or the response format changes so stale cache (and
// disk-spill) identities can never alias new ones. It carries the random
// samplers' generation as well: a result on a random family is a function
// of the realization, so a sampler change re-keys every result, and
// results spilled by an earlier generation are never served.
var keyPrefix = fmt.Sprintf("rumord/v1;sampler=v%d|", graph.RandomSamplerVersion)

// Options configures a Server. The zero value selects all defaults.
type Options struct {
	// Workers bounds concurrently running simulations. Default: half the
	// processors (min 1) — a simulation spreads its trials over the
	// processors itself, one trial per processor at a time
	// (core.RunManyEmit), so two workers' worth of trials already cover
	// the machine.
	Workers int
	// QueueSize bounds accepted-but-not-started jobs; submissions beyond
	// it are rejected with 429, and sweeps whose cross-product exceeds it
	// are rejected with 422 up front. Default 256.
	QueueSize int
	// CacheSize bounds the completed-result LRU (entries, summed across
	// shards). Default 512.
	CacheSize int
	// Shards is the number of job-table/cache shards. Default 16, max 256
	// (the shard selector keys on one byte of the job hash); larger values
	// are clamped so no shard is ever unaddressable.
	Shards int
	// DataDir, when non-empty, enables the disk spill tier: payloads the
	// LRU evicts persist as content-addressed files there and are replayed
	// byte-identically — including across restarts on the same directory.
	DataDir string
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	w := par.Procs() / 2
	if w < 1 {
		w = 1
	}
	return w
}

func (o Options) queueSize() int {
	if o.QueueSize > 0 {
		return o.QueueSize
	}
	return 256
}

func (o Options) cacheSize() int {
	if o.CacheSize > 0 {
		return o.CacheSize
	}
	return 512
}

func (o Options) shards() int {
	switch {
	case o.Shards <= 0:
		return 16
	case o.Shards > 256:
		return 256
	}
	return o.Shards
}

// Stats is a snapshot of the server's counters, exposed on /v1/healthz
// and asserted on by the end-to-end tests (dedup means Simulations stays
// at 1 no matter how many identical requests arrive; a fully warm sweep
// keeps it unchanged).
type Stats struct {
	Requests    int64 `json:"requests"`    // normalized submissions
	Simulations int64 `json:"simulations"` // jobs actually simulated
	DedupHits   int64 `json:"dedupHits"`   // joined an in-flight job
	CacheHits   int64 `json:"cacheHits"`   // served from the result LRU
	SpillHits   int64 `json:"spillHits"`   // served from the disk tier
	SpillWrites int64 `json:"spillWrites"` // payloads persisted on eviction
	SpillLen    int64 `json:"spillLen"`    // entries resident on disk
	Failures    int64 `json:"failures"`    // jobs that ended in error
	Sweeps      int64 `json:"sweeps"`      // sweep plans assembled fresh
	JobsLive    int   `json:"jobsLive"`    // queued + running now
	CacheLen    int   `json:"cacheLen"`    // completed payloads resident
	Shards      int   `json:"shards"`      // store shard count
	Draining    bool  `json:"draining"`
}

// ErrDraining rejects submissions during shutdown.
var ErrDraining = errors.New("serve: shutting down")

// ErrBusy rejects submissions when the job queue is full.
var ErrBusy = errors.New("serve: job queue full")

// Server is the simulation service. Create with New, expose via Handler,
// stop with Shutdown.
type Server struct {
	opts  Options
	store *store

	// lifecycle orders submissions against shutdown: every path that
	// checks draining and then registers with jobsWG holds the read side,
	// so once Shutdown publishes draining under the write side, no new
	// jobsWG.Add can race its Wait. Submitters never hold it across
	// simulation or I/O — only across the check-register window — so it is
	// not a throughput lock; shard locks (store.go) guard the tables.
	lifecycle   sync.RWMutex
	draining    bool
	queueClosed bool
	queue       chan *Job
	jobsWG      sync.WaitGroup // accepted jobs (and sweeps) not yet finished
	workerWG    sync.WaitGroup

	requests    atomic.Int64
	simulations atomic.Int64
	dedupHits   atomic.Int64
	cacheHits   atomic.Int64
	failures    atomic.Int64
	sweeps      atomic.Int64
	runningJobs atomic.Int64 // simulations executing right now (worker occupancy)

	// m holds the /metrics instruments.
	m *serveMetrics

	// drain tracks recent job completions so queue-full 429s can carry an
	// honest Retry-After derived from the observed drain rate.
	drainMu sync.Mutex
	drain   stats.RateRing

	// testRunGate, when set (tests only), runs at the top of each
	// simulation; blocking it holds jobs in the running state so tests can
	// overlap requests deterministically. Guarded by lifecycle.
	testRunGate func(*Job)
}

// New starts a Server's worker pool and returns it. With a DataDir it
// opens (and scans) the disk spill tier first; a directory that cannot
// be prepared is a startup error.
func New(opts Options) (*Server, error) {
	var sp *spill
	if opts.DataDir != "" {
		var err error
		if sp, err = openSpill(opts.DataDir); err != nil {
			return nil, err
		}
	}
	s := &Server{
		opts:  opts,
		store: newStore(opts.shards(), opts.cacheSize(), sp),
		queue: make(chan *Job, opts.queueSize()),
	}
	s.m = newServeMetrics(s)
	for i := 0; i < opts.workers(); i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// SpillLen reports the number of entries resident in the disk tier (0
// without a DataDir) — what the startup scan found plus writes since.
func (s *Server) SpillLen() int64 {
	if s.store.spill == nil {
		return 0
	}
	return s.store.spill.dir.Resident()
}

// Draining reports whether Shutdown has stopped intake: submissions are
// rejected while accepted jobs still finish and deliver their results.
func (s *Server) Draining() bool {
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	return s.draining
}

// QueueDepth reports the accepted-but-not-started job count and the
// queue capacity — the headroom /v1/readyz exposes to routers.
func (s *Server) QueueDepth() (depth, capacity int) {
	return len(s.queue), cap(s.queue)
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.lifecycle.RLock()
	draining := s.draining
	s.lifecycle.RUnlock()
	st := Stats{
		Requests:    s.requests.Load(),
		Simulations: s.simulations.Load(),
		DedupHits:   s.dedupHits.Load(),
		CacheHits:   s.cacheHits.Load(),
		Failures:    s.failures.Load(),
		Sweeps:      s.sweeps.Load(),
		JobsLive:    s.store.jobsLive(),
		CacheLen:    s.store.cacheLen(),
		Shards:      len(s.store.shards),
		Draining:    draining,
	}
	if sp := s.store.spill; sp != nil {
		st.SpillHits = sp.hits.Load()
		st.SpillWrites = sp.dir.Writes()
		st.SpillLen = sp.dir.Resident()
	}
	return st
}

// jobID derives the canonical identity of a normalized spec: SHA-256 over
// the versioned canonical JSON encoding (experiment.RunSpec.CanonicalJSON).
func jobID(spec experiment.RunSpec) string {
	sum := sha256.Sum256(append([]byte(keyPrefix), spec.CanonicalJSON()...))
	return hex.EncodeToString(sum[:])
}

// source labels where a submission's result comes from.
type source string

const (
	sourceRun   source = "run"   // fresh simulation
	sourceDedup source = "dedup" // joined an identical in-flight job
	sourceCache source = "cache" // completed payload from the memory LRU
	sourceDisk  source = "disk"  // completed payload replayed from the spill tier
)

// submit resolves a normalized spec to its job: a cached payload (memory
// or disk), an identical in-flight job, or a freshly queued one. Exactly
// one of c and j is non-nil on success.
func (s *Server) submit(spec experiment.RunSpec) (string, *Job, *completedJob, source, error) {
	return s.submitWithID(jobID(spec), spec)
}

// submitWithID is submit for callers that already derived the spec's ID
// (the sweep planner hashes every point up front for the sweep identity).
func (s *Server) submitWithID(id string, spec experiment.RunSpec) (_ string, j *Job, c *completedJob, src source, err error) {
	s.requests.Add(1)
	// Fast path: any tier of the store already has it. Submissions
	// promote disk hits — a resubmitted spec is likely to repeat.
	if j, c, src, ok := s.store.find(id, true); ok {
		s.countHit(src)
		return id, j, c, src, nil
	}
	return s.schedule(id, newJob(id, spec))
}

// countHit attributes a store hit to its counter.
func (s *Server) countHit(src source) {
	switch src {
	case sourceDedup:
		s.dedupHits.Add(1)
	case sourceCache:
		s.cacheHits.Add(1)
	}
	// Disk hits are counted by the spill tier itself; the by-source
	// metric covers all three.
	s.m.countSource(src)
}

// schedule queues a fresh job under the lifecycle guard, re-checking the
// owning shard so racing identical submissions still collapse onto one
// job. Exactly one of the returned j/c is non-nil on success.
func (s *Server) schedule(id string, fresh *Job) (string, *Job, *completedJob, source, error) {
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	if s.draining {
		s.m.countRejection(ErrDraining)
		return "", nil, nil, "", ErrDraining
	}
	sh := s.store.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The window between the caller's probe and this lock: an identical
	// request may have registered, or even completed, meanwhile.
	if j, ok := sh.jobs[id]; ok {
		s.dedupHits.Add(1)
		s.m.countSource(sourceDedup)
		return id, j, nil, sourceDedup, nil
	}
	if c, ok := sh.cache.Get(id); ok {
		s.cacheHits.Add(1)
		s.m.countSource(sourceCache)
		return id, nil, c, sourceCache, nil
	}
	select {
	case s.queue <- fresh:
	default:
		s.m.countRejection(ErrBusy)
		return "", nil, nil, "", ErrBusy
	}
	sh.jobs[id] = fresh
	s.jobsWG.Add(1)
	s.m.countSource(sourceRun)
	return id, fresh, nil, sourceRun, nil
}

// lookup finds a job by ID in any store tier, in-flight or completed.
// Read-only (status/stream) resolution: disk hits are served without
// promotion so polling cold IDs cannot pollute the memory LRU.
func (s *Server) lookup(id string) (*Job, *completedJob, bool) {
	j, c, _, ok := s.store.find(id, false)
	return j, c, ok
}

// worker consumes the job queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob simulates one job and publishes its payload.
func (s *Server) runJob(j *Job) {
	defer s.jobsWG.Done()
	s.lifecycle.RLock()
	gate := s.testRunGate
	s.lifecycle.RUnlock()
	if gate != nil {
		gate(j)
	}
	j.setRunning()
	s.simulations.Add(1)
	s.runningJobs.Add(1)
	defer s.runningJobs.Add(-1)
	start := time.Now()
	g, src, err := j.Spec.Build()
	if err != nil {
		s.finish(j, nil, err)
		return
	}
	results, err := j.Spec.RunOn(g, src, func(t int, r core.Result) {
		j.appendLine(mustMarshalLine(toTrialJSON(j.Spec, t, r)))
	})
	if err != nil {
		s.finish(j, nil, err)
		return
	}
	// Only completed simulations are observed: failures abort at
	// arbitrary points and would pollute the latency distribution.
	s.m.observeSim(j.Spec.Protocol, time.Since(start).Seconds())
	s.finish(j, mustMarshalLine(buildRunResponse(j.Spec, g, src, results)), nil)
}

// finish completes j (success or failure) and publishes its payload to
// the store: out of the in-flight table, into the result cache — from
// which eviction spills to disk. Waiters wake only once the payload is
// cached, so a client's repeat of a request it has seen answered is a
// cache hit, never a join of the finished job.
func (s *Server) finish(j *Job, resp []byte, err error) {
	if err != nil {
		s.failures.Add(1)
	}
	final := j.seal(resp, err)
	c := &completedJob{resp: resp, lines: j.snapshotLines(), final: final, trials: j.trials, points: j.points}
	if err != nil {
		c.errMsg = err.Error()
	}
	s.store.complete(j.ID, c, j.wake)
	s.drainMu.Lock()
	s.drain.Note(time.Now())
	s.drainMu.Unlock()
}

// retryAfterSeconds derives the Retry-After for a queue-full 429: the
// whole seconds the observed drain rate needs to clear the work already
// queued and running ahead of a retry, clamped to [1s, 60s]. Before any
// completion has been observed it answers 2 — long enough to matter,
// short enough to recover quickly from a cold start.
func (s *Server) retryAfterSeconds() int {
	depth, _ := s.QueueDepth()
	pending := depth + int(s.runningJobs.Load())
	s.drainMu.Lock()
	rate := s.drain.Rate(time.Now(), 10*time.Second)
	s.drainMu.Unlock()
	if rate <= 0 {
		return 2
	}
	secs := int(float64(pending+1)/rate + 0.999)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// Shutdown stops intake (submissions return ErrDraining → 503) and waits
// for every accepted job — queued, running, or an assembling sweep — to
// finish, so no result is dropped. If ctx expires first it returns
// ctx.Err() with workers still draining; the process is expected to exit
// shortly after.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lifecycle.Lock()
	s.draining = true
	s.lifecycle.Unlock()
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// All submitters observe draining before reaching the queue send (both
	// run under the lifecycle read lock), so closing is race-free once
	// intake stopped and jobs drained. Guarded by its own flag — not
	// draining — so a retry after a timed-out first Shutdown still closes
	// the queue and releases the workers.
	s.lifecycle.Lock()
	if !s.queueClosed {
		s.queueClosed = true
		close(s.queue)
	}
	s.lifecycle.Unlock()
	s.workerWG.Wait()
	return nil
}
