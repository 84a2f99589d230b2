package admission

import (
	"context"
	"slices"
	"strings"
	"sync"
	"time"

	"rumor/internal/stats"
)

// drainWindow is how far back the drain-rate estimate behind Retry-After
// looks.
const drainWindow = 10 * time.Second

// Outcome classifies what the controller did with one submission.
type Outcome uint8

const (
	// Admitted: a dispatch slot was granted (immediately or after a fair-
	// queue wait); the caller must call Decision.Release when done.
	Admitted Outcome = iota
	// Throttled: the client exceeded its own quota (rate, in-flight, or
	// backlog); 429 with Retry-After.
	Throttled
	// Shed: the gateway as a whole cannot take the work (no backend
	// headroom, or the shared hold queue is full); 503 with Retry-After.
	Shed
	// Canceled: the caller's context ended while the submission waited in
	// the fair queue.
	Canceled
)

// Decision is the controller's answer for one submission.
type Decision struct {
	Outcome Outcome
	// Client is the resolved identity, Class the bounded metric class
	// ("default" or a configured override key).
	Client string
	Class  string
	// Reason names the specific limit behind a Throttled/Shed outcome:
	// "rate", "inflight", "backlog", "headroom", "queue".
	Reason string
	// RetryAfter is the honest wait hint for non-admitted outcomes.
	RetryAfter time.Duration
	// Waited is how long an admitted submission sat in the fair queue.
	Waited time.Duration

	release func()
}

// Release returns an Admitted submission's slot; it must be called
// exactly once per admission (idempotent: extra calls are no-ops).
// Non-admitted decisions carry a nil release and Release is a no-op.
func (d Decision) Release() {
	if d.release != nil {
		d.release()
	}
}

// Options configures a Controller. The zero value is permissive:
// unlimited per-client quotas, 256 concurrent dispatches, 1024 held.
type Options struct {
	// Config holds the per-client quotas.
	Config Config
	// MaxInFlight caps concurrently dispatched submissions across all
	// clients — size it near the backends' aggregate worker count so held
	// work queues here, where fairness is enforced, instead of deep in
	// backend FIFOs. Default 256.
	MaxInFlight int
	// MaxQueue caps total held submissions across all clients; beyond it
	// submissions shed. Default 1024.
	MaxQueue int
	// Headroom, when set, reports the aggregate queue headroom of the
	// healthy backends and whether that figure is known. known && headroom
	// <= 0 sheds new submissions at intake.
	Headroom func() (headroom int, known bool)
	// QueueWait, when set, observes each admitted submission's fair-queue
	// wait in seconds, labeled by class (the metrics histogram hook).
	QueueWait func(class string, seconds float64)
	// RetryFallback is the Retry-After when no drain has been observed
	// yet. Default 1s.
	RetryFallback time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
	// MaxClients bounds the tracked-client map; beyond it, idle entries
	// are evicted oldest-first. Default 8192.
	MaxClients int
}

func (o Options) maxInFlight() int {
	if o.MaxInFlight > 0 {
		return o.MaxInFlight
	}
	return 256
}

func (o Options) maxQueue() int {
	if o.MaxQueue > 0 {
		return o.MaxQueue
	}
	return 1024
}

func (o Options) retryFallback() time.Duration {
	if o.RetryFallback > 0 {
		return o.RetryFallback
	}
	return time.Second
}

func (o Options) maxClients() int {
	if o.MaxClients > 0 {
		return o.MaxClients
	}
	return 8192
}

// ClassStats are one metric class's cumulative counters.
type ClassStats struct {
	Accepted  int64 `json:"accepted"`  // dispatched (immediately or from the queue)
	Throttled int64 `json:"throttled"` // bounced off the client's own quota
	Shed      int64 `json:"shed"`      // bounced off gateway-wide limits
	Queued    int64 `json:"queued"`    // held in the fair queue at least once
}

// Stats is a consistent snapshot of the controller. The conservation law
//
//	Submitted == Dispatched + Throttled + Shed + Canceled + QueueLen
//
// holds exactly on every snapshot (all fields move under one mutex).
type Stats struct {
	Submitted  int64 `json:"submitted"`
	Dispatched int64 `json:"dispatched"`
	Throttled  int64 `json:"throttled"`
	Shed       int64 `json:"shed"`
	Canceled   int64 `json:"canceled"`
	QueueLen   int   `json:"queueLen"`
	InFlight   int   `json:"inFlight"`
	Clients    int   `json:"clients"`

	ByClass map[string]ClassStats `json:"byClass"`
}

const (
	wStateQueued = iota
	wStateGranted
	wStateCanceled
)

// waiter is one submission held in the fair queue.
type waiter struct {
	cl    *clientState
	ready chan struct{}
	at    time.Time
	state int
}

// clientState tracks one identity's live quota usage.
type clientState struct {
	id       string
	class    string
	quota    Quota
	bucket   *Bucket // nil when RatePerSec is unlimited
	inFlight int
	queued   int
	lastSeen time.Time
}

// Controller is the admission layer: one per gateway. Create with
// NewController; it has no background goroutines.
type Controller struct {
	opts Options
	now  func() time.Time

	mu       sync.Mutex
	clients  map[string]*clientState
	queue    *drr[*waiter]
	inFlight int
	queued   int // live queued count (excludes canceled ghosts still in drr)

	submitted  int64
	dispatched int64
	throttled  int64
	shed       int64
	canceled   int64
	byClass    map[string]*ClassStats

	drain stats.RateRing
}

// NewController builds a Controller over opts.
func NewController(opts Options) *Controller {
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	c := &Controller{
		opts:    opts,
		now:     now,
		clients: map[string]*clientState{},
		queue:   newDRR[*waiter](1),
		byClass: map[string]*ClassStats{},
	}
	// Pre-seed every configured class so the metric inventory is complete
	// from boot (scrapes see zeros, not absent series).
	for _, class := range opts.Config.Classes() {
		c.byClass[class] = &ClassStats{}
	}
	return c
}

// Classes returns the bounded metric-class inventory.
func (c *Controller) Classes() []string { return c.opts.Config.Classes() }

// SetQueueWait installs the queue-wait observer after construction (the
// gateway builds its metrics registry around the controller). Call
// before serving traffic.
func (c *Controller) SetQueueWait(fn func(class string, seconds float64)) {
	c.opts.QueueWait = fn
}

// Acquire runs one submission through admission: identity, rate limit,
// concurrency quota, headroom shed, then either immediate dispatch or a
// fair-queue wait. It blocks while queued (bounded by the caller's ctx)
// and never blocks otherwise.
func (c *Controller) Acquire(ctx context.Context, apiKey, remoteAddr string) Decision {
	id, keyed := Identity(apiKey, remoteAddr)
	now := c.now()

	c.mu.Lock()
	c.submitted++
	cl := c.clientLocked(id, apiKey, keyed, now)
	cs := c.classLocked(cl.class)
	d := Decision{Client: id, Class: cl.class}

	// Per-client rate: bounce before any shared resource is touched.
	if cl.bucket != nil && !cl.bucket.Allow(now) {
		c.throttled++
		cs.Throttled++
		d.Outcome, d.Reason = Throttled, "rate"
		d.RetryAfter = maxDur(cl.bucket.NextToken(now), time.Second)
		c.mu.Unlock()
		return d
	}
	// Per-client concurrency: dispatched work it already holds.
	if mif := cl.quota.MaxInFlight; mif > 0 && cl.inFlight >= mif {
		c.throttled++
		cs.Throttled++
		d.Outcome, d.Reason = Throttled, "inflight"
		d.RetryAfter = c.retryAfterLocked(now, cl.inFlight)
		c.mu.Unlock()
		return d
	}
	// Aggregate backend headroom: when the whole tier is known-full, an
	// early 503 beats a queue the backends cannot drain.
	if hr := c.opts.Headroom; hr != nil {
		if headroom, known := hr(); known && headroom <= 0 {
			c.shed++
			cs.Shed++
			d.Outcome, d.Reason = Shed, "headroom"
			d.RetryAfter = c.retryAfterLocked(now, c.inFlight+c.queued)
			c.mu.Unlock()
			return d
		}
	}
	// Immediate dispatch — only past an empty queue, so a new arrival
	// cannot barge ahead of fairly-queued work.
	if c.inFlight < c.opts.maxInFlight() && c.queued == 0 {
		c.grantLocked(cl, cs)
		d.Outcome = Admitted
		d.release = c.releaser(cl)
		c.mu.Unlock()
		return d
	}
	// Saturated: hold in the fair queue, within bounds.
	if c.queued >= c.opts.maxQueue() {
		c.shed++
		cs.Shed++
		d.Outcome, d.Reason = Shed, "queue"
		d.RetryAfter = c.retryAfterLocked(now, c.inFlight+c.queued)
		c.mu.Unlock()
		return d
	}
	if mq := cl.quota.MaxQueue; mq > 0 && cl.queued >= mq {
		c.throttled++
		cs.Throttled++
		d.Outcome, d.Reason = Throttled, "backlog"
		d.RetryAfter = c.retryAfterLocked(now, cl.inFlight+cl.queued)
		c.mu.Unlock()
		return d
	}
	w := &waiter{cl: cl, ready: make(chan struct{}), at: now}
	c.queue.Push(cl.id, cl.quota.Weight, w)
	cl.queued++
	c.queued++
	cs.Queued++
	c.mu.Unlock()

	select {
	case <-w.ready:
		waited := c.now().Sub(w.at)
		if waited < 0 {
			waited = 0
		}
		if fn := c.opts.QueueWait; fn != nil {
			fn(cl.class, waited.Seconds())
		}
		d.Outcome = Admitted
		d.Waited = waited
		d.release = c.releaser(cl)
		return d
	case <-ctx.Done():
		c.mu.Lock()
		if w.state == wStateGranted {
			// Dispatch won the race: the slot is ours, so hand it straight
			// back (accounting already counted the dispatch).
			c.releaseLocked(cl)
			c.mu.Unlock()
			d.Outcome = Canceled
			return d
		}
		w.state = wStateCanceled // Pop will skip the ghost
		cl.queued--
		c.queued--
		c.canceled++
		c.mu.Unlock()
		d.Outcome = Canceled
		return d
	}
}

// releaser builds the idempotent release closure for one admission.
func (c *Controller) releaser(cl *clientState) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.releaseLocked(cl)
			c.mu.Unlock()
		})
	}
}

// grantLocked dispatches one submission for cl.
func (c *Controller) grantLocked(cl *clientState, cs *ClassStats) {
	c.inFlight++
	cl.inFlight++
	c.dispatched++
	cs.Accepted++
}

// releaseLocked returns a slot, notes the completion for the drain-rate
// estimator, and pumps the fair queue into the freed capacity.
func (c *Controller) releaseLocked(cl *clientState) {
	cl.inFlight--
	c.inFlight--
	cl.lastSeen = c.now()
	c.drain.Note(cl.lastSeen)
	c.pumpLocked()
}

// pumpLocked dispatches queued waiters while slots are free, in DRR
// order, skipping canceled ghosts.
func (c *Controller) pumpLocked() {
	for c.inFlight < c.opts.maxInFlight() {
		w, ok := c.queue.Pop()
		if !ok {
			return
		}
		if w.state == wStateCanceled {
			continue // its live counters were already rolled back at cancel
		}
		w.state = wStateGranted
		w.cl.queued--
		c.queued--
		c.grantLocked(w.cl, c.classLocked(w.cl.class))
		close(w.ready)
	}
}

// clientLocked finds or creates the state for identity id.
func (c *Controller) clientLocked(id, apiKey string, keyed bool, now time.Time) *clientState {
	if cl := c.clients[id]; cl != nil {
		cl.lastSeen = now
		return cl
	}
	if len(c.clients) >= c.opts.maxClients() {
		c.evictIdleLocked()
	}
	class, q := c.opts.Config.resolve(apiKey, keyed)
	cl := &clientState{id: id, class: class, quota: q, lastSeen: now}
	if q.RatePerSec > 0 {
		cl.bucket = NewBucket(q.RatePerSec, q.Burst)
	}
	c.clients[id] = cl
	return cl
}

// evictIdleLocked drops clients with no live work, oldest-first, until
// the map is a quarter under its cap — enough headroom that a scan per
// new client is amortized away. The idle clients are sorted once by
// (lastSeen, id), so ties break the same way every time and the pass
// costs one sort rather than a scan per evicted client. Evicting an idle
// client only forgets rate-limit history, never live accounting.
func (c *Controller) evictIdleLocked() {
	idle := make([]*clientState, 0, len(c.clients))
	for _, cl := range c.clients {
		if cl.inFlight == 0 && cl.queued == 0 {
			idle = append(idle, cl)
		}
	}
	slices.SortFunc(idle, func(a, b *clientState) int {
		if by := a.lastSeen.Compare(b.lastSeen); by != 0 {
			return by
		}
		return strings.Compare(a.id, b.id)
	})
	excess := len(c.clients) - c.opts.maxClients()*3/4
	for _, cl := range idle[:max(0, min(excess, len(idle)))] {
		delete(c.clients, cl.id)
	}
}

// classLocked finds or creates the counter block for class.
func (c *Controller) classLocked(class string) *ClassStats {
	cs := c.byClass[class]
	if cs == nil {
		cs = &ClassStats{}
		c.byClass[class] = cs
	}
	return cs
}

// Stats returns a consistent snapshot; the conservation law holds on
// every call.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Submitted:  c.submitted,
		Dispatched: c.dispatched,
		Throttled:  c.throttled,
		Shed:       c.shed,
		Canceled:   c.canceled,
		QueueLen:   c.queued,
		InFlight:   c.inFlight,
		Clients:    len(c.clients),
		ByClass:    make(map[string]ClassStats, len(c.byClass)),
	}
	for class, cs := range c.byClass {
		st.ByClass[class] = *cs
	}
	return st
}

// RetryAfter is the controller's current honest wait hint: the time the
// observed drain rate needs to clear the work ahead of a new arrival.
func (c *Controller) RetryAfter() time.Duration {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retryAfterLocked(now, c.inFlight+c.queued)
}

// retryAfterLocked derives a wait hint for a request behind `pending`
// other units of work, from the drain rate observed over the estimator
// window. No observed drain (cold boot, or a long stall) falls back to
// Options.RetryFallback; the result is clamped to [1s, 60s] — honest but
// never hammering, never parking a client for minutes on a blip.
func (c *Controller) retryAfterLocked(now time.Time, pending int) time.Duration {
	rate := c.drain.Rate(now, drainWindow)
	var d time.Duration
	if rate <= 0 {
		d = c.opts.retryFallback()
	} else {
		d = time.Duration(float64(pending+1) / rate * float64(time.Second))
	}
	return clampDur(d, time.Second, 60*time.Second)
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
