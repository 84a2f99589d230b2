package stats

import (
	"testing"
	"time"
)

// TestRateRingBurstWraps: 300 completions within 0.1 s wrap the 256-slot
// ring. The rate must be read over the span the ring still covers,
// ≈ 3000/s — not the 256 survivors spread over the whole 10 s window
// (25.6/s), which would inflate a Retry-After a hundredfold.
func TestRateRingBurstWraps(t *testing.T) {
	now := time.Unix(1000, 0)
	var r RateRing
	for i := 0; i < 300; i++ {
		r.Note(now.Add(-100*time.Millisecond + time.Duration(i+1)*100*time.Millisecond/300))
	}
	if got := r.Rate(now, 10*time.Second); got < 2900 || got > 3100 {
		t.Fatalf("rate of 300 completions in 0.1 s = %.1f/s, want ≈ 3000/s", got)
	}
}

// TestRateRingWindow: before the ring wraps the rate is the count inside
// the window over the whole window; older events and an empty ring give
// 0.
func TestRateRingWindow(t *testing.T) {
	now := time.Unix(1000, 0)
	var r RateRing
	if got := r.Rate(now, 10*time.Second); got != 0 {
		t.Fatalf("empty ring rate = %v, want 0", got)
	}
	r.Note(now.Add(-time.Minute)) // outside the window
	for i := 0; i < 5; i++ {
		r.Note(now.Add(-time.Duration(i) * time.Second))
	}
	if got := r.Rate(now, 10*time.Second); got != 0.5 {
		t.Fatalf("rate = %v, want 5 completions / 10 s = 0.5", got)
	}
	if got := r.Rate(now.Add(time.Hour), 10*time.Second); got != 0 {
		t.Fatalf("rate an hour later = %v, want 0", got)
	}
}
