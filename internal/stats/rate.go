package stats

import "time"

// RateRing estimates a recent event rate (completions per second) from
// the times of the last 256 events. Both Retry-After hints — rumord's
// queue-full 429 and the gateway admission controller's — read their
// drain rate off one. The zero value is ready to use; it is not safe for
// concurrent use, so callers guard it.
type RateRing struct {
	times  [256]time.Time
	idx    int
	filled bool
}

// Note records an event at t.
func (r *RateRing) Note(t time.Time) {
	r.times[r.idx] = t
	r.idx++
	if r.idx == len(r.times) {
		r.idx = 0
		r.filled = true
	}
}

// Rate returns events per second over the trailing window (0 when none
// fall in it). When the ring wrapped inside the window the rate is
// computed over the span it actually covers, so a burst faster than the
// ring holds is not underestimated into an inflated wait.
func (r *RateRing) Rate(now time.Time, window time.Duration) float64 {
	cutoff := now.Add(-window)
	n := r.idx
	if r.filled {
		n = len(r.times)
	}
	count := 0
	oldest := now
	for _, t := range r.times[:n] {
		if t.After(cutoff) {
			count++
			if t.Before(oldest) {
				oldest = t
			}
		}
	}
	if count == 0 {
		return 0
	}
	span := window
	if r.filled {
		if s := now.Sub(oldest); s > 0 && s < span {
			span = s
		}
	}
	if span <= 0 {
		return 0
	}
	return float64(count) / span.Seconds()
}
