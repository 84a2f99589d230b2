package admission

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

// waitUntil polls cond for a test-scale deadline.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// checkConservation asserts the controller's conservation law on one
// snapshot.
func checkConservation(t *testing.T, st Stats) {
	t.Helper()
	if got := st.Dispatched + st.Throttled + st.Shed + st.Canceled + int64(st.QueueLen); got != st.Submitted {
		t.Fatalf("conservation broken: submitted=%d but dispatched=%d + throttled=%d + shed=%d + canceled=%d + queued=%d = %d",
			st.Submitted, st.Dispatched, st.Throttled, st.Shed, st.Canceled, st.QueueLen, got)
	}
}

func TestAcquireImmediateAndRelease(t *testing.T) {
	c := NewController(Options{})
	d := c.Acquire(context.Background(), "", "10.0.0.1:1")
	if d.Outcome != Admitted {
		t.Fatalf("outcome = %v, want Admitted", d.Outcome)
	}
	if d.Class != DefaultClass || d.Client != "addr:10.0.0.1" {
		t.Fatalf("class/client = %q/%q", d.Class, d.Client)
	}
	st := c.Stats()
	if st.InFlight != 1 || st.Dispatched != 1 {
		t.Fatalf("stats after admit: %+v", st)
	}
	d.Release()
	d.Release() // idempotent
	st = c.Stats()
	if st.InFlight != 0 {
		t.Fatalf("inflight after release = %d", st.InFlight)
	}
	checkConservation(t, st)
}

func TestRateThrottleWithHonestRetryAfter(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Options{
		Config: Config{Default: Quota{RatePerSec: 2, Burst: 2}},
		Now:    clk.now,
	})
	for i := 0; i < 2; i++ {
		if d := c.Acquire(context.Background(), "", "10.0.0.1:1"); d.Outcome != Admitted {
			t.Fatalf("burst acquire %d: %v", i, d.Outcome)
		} else {
			d.Release()
		}
	}
	d := c.Acquire(context.Background(), "", "10.0.0.1:1")
	if d.Outcome != Throttled || d.Reason != "rate" {
		t.Fatalf("outcome/reason = %v/%q, want Throttled/rate", d.Outcome, d.Reason)
	}
	// The real token wait is 500ms; the header floor keeps it >= 1s.
	if d.RetryAfter < 500*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want >= the 500ms token wait", d.RetryAfter)
	}
	// A different client is not collateral damage.
	if d := c.Acquire(context.Background(), "", "10.0.0.2:1"); d.Outcome != Admitted {
		t.Fatalf("second client throttled by the first's bucket: %v", d.Outcome)
	} else {
		d.Release()
	}
	// After the refill interval the first client admits again.
	clk.advance(time.Second)
	if d := c.Acquire(context.Background(), "", "10.0.0.1:1"); d.Outcome != Admitted {
		t.Fatalf("post-refill acquire: %v", d.Outcome)
	} else {
		d.Release()
	}
	checkConservation(t, c.Stats())
}

func TestInFlightQuotaThrottle(t *testing.T) {
	c := NewController(Options{
		Config: Config{Clients: map[string]Quota{"small": {MaxInFlight: 1}}},
	})
	first := c.Acquire(context.Background(), "small", "")
	if first.Outcome != Admitted || first.Class != "small" {
		t.Fatalf("first acquire: %v class %q", first.Outcome, first.Class)
	}
	d := c.Acquire(context.Background(), "small", "")
	if d.Outcome != Throttled || d.Reason != "inflight" {
		t.Fatalf("outcome/reason = %v/%q, want Throttled/inflight", d.Outcome, d.Reason)
	}
	if d.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", d.RetryAfter)
	}
	first.Release()
	if d := c.Acquire(context.Background(), "small", ""); d.Outcome != Admitted {
		t.Fatalf("post-release acquire: %v", d.Outcome)
	} else {
		d.Release()
	}
	checkConservation(t, c.Stats())
}

func TestHeadroomShed(t *testing.T) {
	headroom, known := 0, true
	var mu sync.Mutex
	c := NewController(Options{Headroom: func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		return headroom, known
	}})
	d := c.Acquire(context.Background(), "", "10.0.0.1:1")
	if d.Outcome != Shed || d.Reason != "headroom" {
		t.Fatalf("outcome/reason = %v/%q, want Shed/headroom", d.Outcome, d.Reason)
	}
	if d.RetryAfter < time.Second {
		t.Fatalf("shed RetryAfter = %v, want >= 1s", d.RetryAfter)
	}
	mu.Lock()
	known = false // unknown headroom must not shed (boot, probes pending)
	mu.Unlock()
	if d := c.Acquire(context.Background(), "", "10.0.0.1:1"); d.Outcome != Admitted {
		t.Fatalf("unknown headroom shed the request: %v", d.Outcome)
	} else {
		d.Release()
	}
	mu.Lock()
	headroom, known = 7, true
	mu.Unlock()
	if d := c.Acquire(context.Background(), "", "10.0.0.1:1"); d.Outcome != Admitted {
		t.Fatalf("positive headroom shed the request: %v", d.Outcome)
	} else {
		d.Release()
	}
	checkConservation(t, c.Stats())
}

// TestFairQueueDRRDispatch saturates a 1-slot controller, queues a
// greedy burst and a weighted polite pair, and asserts dispatch follows
// DRR order — polite's weight buys it service ahead of the greedy
// backlog — with queue waits surfaced to the observer.
func TestFairQueueDRRDispatch(t *testing.T) {
	var waitMu sync.Mutex
	waits := map[string]int{}
	c := NewController(Options{
		MaxInFlight: 1,
		Config: Config{Clients: map[string]Quota{
			"greedy": {Weight: 1},
			"polite": {Weight: 2},
		}},
	})
	c.SetQueueWait(func(class string, _ float64) {
		waitMu.Lock()
		waits[class]++
		waitMu.Unlock()
	})
	blocker := c.Acquire(context.Background(), "greedy", "")
	if blocker.Outcome != Admitted {
		t.Fatalf("blocker: %v", blocker.Outcome)
	}

	type grant struct {
		class string
		d     Decision
	}
	grants := make(chan grant, 8)
	enqueue := func(key string) {
		before := c.Stats().QueueLen
		go func() {
			d := c.Acquire(context.Background(), key, "")
			grants <- grant{key, d}
		}()
		waitUntil(t, "queue growth for "+key, func() bool { return c.Stats().QueueLen > before })
	}
	// Arrival order: 4 greedy, then 2 polite.
	for i := 0; i < 4; i++ {
		enqueue("greedy")
	}
	enqueue("polite")
	enqueue("polite")

	// Drain one at a time; DRR with weights 1:2 and greedy first in the
	// rotation dispatches greedy, polite, polite, greedy, greedy, greedy.
	want := []string{"greedy", "polite", "polite", "greedy", "greedy", "greedy"}
	release := blocker.Release
	for i, wantClass := range want {
		release()
		g := <-grants
		if g.d.Outcome != Admitted {
			t.Fatalf("grant %d: outcome %v", i, g.d.Outcome)
		}
		if g.class != wantClass {
			t.Fatalf("dispatch %d went to %s, want %s (DRR order violated)", i, g.class, wantClass)
		}
		release = g.d.Release
	}
	release()
	st := c.Stats()
	if st.QueueLen != 0 || st.InFlight != 0 {
		t.Fatalf("drained controller: %+v", st)
	}
	checkConservation(t, st)
	waitMu.Lock()
	defer waitMu.Unlock()
	if waits["greedy"] != 4 || waits["polite"] != 2 {
		t.Fatalf("queue-wait observations %v, want greedy=4 polite=2", waits)
	}
	if st.ByClass["polite"].Accepted != 2 || st.ByClass["greedy"].Accepted != 5 {
		t.Fatalf("per-class accepted %+v", st.ByClass)
	}
}

func TestQueueCapShedAndBacklogThrottle(t *testing.T) {
	c := NewController(Options{
		MaxInFlight: 1,
		MaxQueue:    2,
		Config:      Config{Clients: map[string]Quota{"cap1": {MaxQueue: 1}}},
	})
	blocker := c.Acquire(context.Background(), "", "10.0.0.9:1")
	defer blocker.Release()

	var wg sync.WaitGroup
	queuedAcquire := func(key, addr string) {
		before := c.Stats().QueueLen
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := c.Acquire(context.Background(), key, addr)
			d.Release()
		}()
		waitUntil(t, "queue growth", func() bool { return c.Stats().QueueLen > before })
	}
	// cap1 queues one; its second held submission throttles (backlog).
	queuedAcquire("cap1", "")
	if d := c.Acquire(context.Background(), "cap1", ""); d.Outcome != Throttled || d.Reason != "backlog" {
		t.Fatalf("outcome/reason = %v/%q, want Throttled/backlog", d.Outcome, d.Reason)
	}
	// Fill the shared queue; the next client sheds (queue).
	queuedAcquire("", "10.0.0.8:1")
	if d := c.Acquire(context.Background(), "", "10.0.0.7:1"); d.Outcome != Shed || d.Reason != "queue" {
		t.Fatalf("outcome/reason = %v/%q, want Shed/queue", d.Outcome, d.Reason)
	}
	checkConservation(t, c.Stats())
	blocker.Release()
	wg.Wait()
	st := c.Stats()
	if st.QueueLen != 0 || st.InFlight != 0 {
		t.Fatalf("drained controller: %+v", st)
	}
	checkConservation(t, st)
}

func TestCancelWhileQueued(t *testing.T) {
	c := NewController(Options{MaxInFlight: 1})
	blocker := c.Acquire(context.Background(), "", "10.0.0.1:1")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Decision, 1)
	go func() { done <- c.Acquire(ctx, "", "10.0.0.2:1") }()
	waitUntil(t, "waiter to queue", func() bool { return c.Stats().QueueLen == 1 })
	cancel()
	d := <-done
	if d.Outcome != Canceled {
		t.Fatalf("outcome = %v, want Canceled", d.Outcome)
	}
	d.Release() // no-op on non-admitted decisions
	st := c.Stats()
	if st.Canceled != 1 || st.QueueLen != 0 {
		t.Fatalf("stats after cancel: %+v", st)
	}
	checkConservation(t, st)

	// The canceled ghost must not absorb the next dispatch.
	grantCh := make(chan Decision, 1)
	go func() { grantCh <- c.Acquire(context.Background(), "", "10.0.0.3:1") }()
	waitUntil(t, "second waiter to queue", func() bool { return c.Stats().QueueLen == 1 })
	blocker.Release()
	g := <-grantCh
	if g.Outcome != Admitted {
		t.Fatalf("post-cancel dispatch: %v", g.Outcome)
	}
	g.Release()
	checkConservation(t, c.Stats())
}

// TestRetryAfterTracksDrainRate drives a known completion rate through
// the estimator and asserts the hint scales with the backlog.
func TestRetryAfterTracksDrainRate(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Options{MaxInFlight: 64, Now: clk.now, RetryFallback: 3 * time.Second})

	// Cold: no drain observed -> the configured fallback.
	if got := c.RetryAfter(); got != 3*time.Second {
		t.Fatalf("cold RetryAfter = %v, want the 3s fallback", got)
	}
	// 10 completions/s across the estimator's whole 10s window.
	for i := 0; i < 100; i++ {
		d := c.Acquire(context.Background(), "", "10.0.0.1:1")
		if d.Outcome != Admitted {
			t.Fatalf("drive acquire %d: %v", i, d.Outcome)
		}
		clk.advance(100 * time.Millisecond)
		d.Release()
	}
	// 39 other units pending -> (39+1)/10 per sec = 4s.
	var held []Decision
	for i := 0; i < 39; i++ {
		d := c.Acquire(context.Background(), "", "10.0.0.1:1")
		if d.Outcome != Admitted {
			t.Fatalf("hold acquire %d: %v", i, d.Outcome)
		}
		held = append(held, d)
	}
	got := c.RetryAfter()
	if got < 3500*time.Millisecond || got > 4500*time.Millisecond {
		t.Fatalf("RetryAfter with 39 pending at 10/s = %v, want ~4s", got)
	}
	for _, d := range held {
		d.Release()
	}
	// Clamp ceiling: an absurd backlog still answers within a minute.
	if c.retryAfterLocked(clk.now(), 1<<20) != 60*time.Second {
		t.Fatal("RetryAfter ceiling clamp missing")
	}
	checkConservation(t, c.Stats())
}

// TestConservationUnderConcurrentStorm hammers the controller from many
// goroutines with mixed identities, cancels, and tight quotas while a
// scraper asserts the conservation law on every concurrent snapshot —
// the property the soak harness later asserts over /metrics. Run under
// -race in CI.
func TestConservationUnderConcurrentStorm(t *testing.T) {
	c := NewController(Options{
		MaxInFlight: 4,
		MaxQueue:    32,
		Config: Config{
			Default: Quota{MaxInFlight: 8, MaxQueue: 8},
			Clients: map[string]Quota{
				"greedy": {RatePerSec: 200, Burst: 20, MaxQueue: 4},
				"heavy":  {Weight: 4},
			},
		},
	})
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				checkConservation(t, c.Stats())
			}
		}
	}()

	keys := []string{"greedy", "heavy", "", "", ""}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 0xfa12))
			for i := 0; i < 150; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rng.IntN(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.IntN(3))*time.Millisecond)
				}
				key := keys[rng.IntN(len(keys))]
				addr := fmt.Sprintf("10.0.%d.%d:99", g, rng.IntN(3))
				d := c.Acquire(ctx, key, addr)
				if d.Outcome == Admitted {
					if rng.IntN(3) == 0 {
						time.Sleep(time.Duration(rng.IntN(200)) * time.Microsecond)
					}
					d.Release()
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	st := c.Stats()
	if st.QueueLen != 0 || st.InFlight != 0 {
		t.Fatalf("storm left residue: %+v", st)
	}
	if st.Submitted != 12*150 {
		t.Fatalf("submitted = %d, want %d", st.Submitted, 12*150)
	}
	checkConservation(t, st)
	var byClass int64
	for _, cs := range st.ByClass {
		byClass += cs.Accepted + cs.Throttled + cs.Shed
	}
	if byClass != st.Dispatched+st.Throttled+st.Shed {
		t.Fatalf("per-class counters (%d) disagree with totals (%d)",
			byClass, st.Dispatched+st.Throttled+st.Shed)
	}
}

// TestClientEviction pins the tracked-client bound: idle identities are
// evicted, live ones never are.
func TestClientEviction(t *testing.T) {
	c := NewController(Options{MaxClients: 8})
	held := c.Acquire(context.Background(), "", "10.9.9.9:1")
	if held.Outcome != Admitted {
		t.Fatalf("held acquire: %v", held.Outcome)
	}
	for i := 0; i < 50; i++ {
		d := c.Acquire(context.Background(), "", fmt.Sprintf("10.1.%d.%d:1", i/200, i%200))
		if d.Outcome != Admitted {
			t.Fatalf("acquire %d: %v", i, d.Outcome)
		}
		d.Release()
	}
	st := c.Stats()
	if st.Clients > 8 {
		t.Fatalf("tracked clients = %d, want <= cap 8", st.Clients)
	}
	// The live client survived every eviction sweep.
	c.mu.Lock()
	_, ok := c.clients["addr:10.9.9.9"]
	c.mu.Unlock()
	if !ok {
		t.Fatal("client with live in-flight work was evicted")
	}
	held.Release()
	checkConservation(t, c.Stats())
}

// TestClientEvictionOldestIdle pins which clients an eviction drops: the
// idle ones, oldest lastSeen first, ties broken by identity, until the map
// is at ¾ of its cap. The live client is the oldest of all and stays; the
// two clients seen at the same instant straddle the cut, so a tie broken
// by map order would drop the wrong one in some of the repeats.
func TestClientEvictionOldestIdle(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	seen := []time.Duration{ // client 10.0.0.(i+2)'s first and only request
		1 * time.Second, 2 * time.Second, 2 * time.Second,
		3 * time.Second, 4 * time.Second, 5 * time.Second, 6 * time.Second,
	}
	for rep := 0; rep < 20; rep++ {
		now := base
		c := NewController(Options{MaxClients: 8, Now: func() time.Time { return now }})
		held := c.Acquire(context.Background(), "", "10.0.0.1:1")
		if held.Outcome != Admitted {
			t.Fatalf("held acquire: %v", held.Outcome)
		}
		for i, d := range seen {
			now = base.Add(d)
			dec := c.Acquire(context.Background(), "", fmt.Sprintf("10.0.0.%d:1", i+2))
			if dec.Outcome != Admitted {
				t.Fatalf("acquire %d: %v", i, dec.Outcome)
			}
			dec.Release()
		}
		now = base.Add(10 * time.Second)
		c.mu.Lock()
		c.evictIdleLocked()
		var got []string
		for id := range c.clients {
			got = append(got, id)
		}
		c.mu.Unlock()
		slices.Sort(got)
		want := []string{"addr:10.0.0.1", "addr:10.0.0.4", "addr:10.0.0.5", "addr:10.0.0.6", "addr:10.0.0.7", "addr:10.0.0.8"}
		if !slices.Equal(got, want) {
			t.Fatalf("rep %d: clients after eviction %v, want %v (¾ of the cap, oldest idle dropped)", rep, got, want)
		}
		held.Release()
		checkConservation(t, c.Stats())
	}
}

func TestLoadConfigStrictAndMerge(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/quotas.json"
	write := func(s string) {
		t.Helper()
		if err := writeFile(path, s); err != nil {
			t.Fatal(err)
		}
	}
	write(`{
		"default": {"ratePerSec": 5, "maxInFlight": 4, "maxQueue": 8},
		"clients": {
			"greedy": {"ratePerSec": 50, "burst": 10, "weight": 2},
			"free":   {"ratePerSec": -1, "maxInFlight": -1}
		}
	}`)
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Classes(); len(got) != 3 || got[0] != DefaultClass || got[1] != "free" || got[2] != "greedy" {
		t.Fatalf("Classes() = %v", got)
	}
	class, q := cfg.resolve("greedy", true)
	if class != "greedy" || q.RatePerSec != 50 || q.Burst != 10 || q.MaxInFlight != 4 || q.MaxQueue != 8 || q.Weight != 2 {
		t.Fatalf("greedy resolved to %q %+v (zero fields must inherit the default)", class, q)
	}
	class, q = cfg.resolve("free", true)
	if class != "free" || q.RatePerSec != 0 || q.MaxInFlight != 0 {
		t.Fatalf("free resolved to %q %+v (-1 must mean unlimited)", class, q)
	}
	class, q = cfg.resolve("unknown-key", true)
	if class != DefaultClass || q.RatePerSec != 5 || q.Burst != 5 || q.Weight != 1 {
		t.Fatalf("unknown key resolved to %q %+v (want default class, burst = ceil(rate))", class, q)
	}

	write(`{"default": {}, "typo": true}`)
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	write(`{"clients": {"bad key!": {}}}`)
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("invalid client key accepted")
	}
	write(`{"default": {"weight": -2}}`)
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("below -1 quota accepted")
	}
	if _, err := LoadConfig(dir + "/missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func writeFile(path, s string) error {
	return os.WriteFile(path, []byte(s), 0o644)
}
