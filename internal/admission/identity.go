// Package admission is the gateway's per-client fairness layer: it
// decides, for every submission, whether to dispatch it now, hold it in
// a weighted fair queue, throttle it back to the client, or shed it —
// and it owes every non-dispatch an honest Retry-After.
//
// The layer composes four small pieces:
//
//   - client identity (identity.go): an API-key header when present and
//     well-formed, the canonicalized remote address otherwise, so one
//     client cannot split itself into many by varying spelling;
//   - per-client token buckets and concurrency quotas (bucket.go,
//     quotas.go): sustained rate, burst, in-flight, and backlog caps,
//     with per-key overrides loaded from a JSON file;
//   - a weighted deficit-round-robin queue (drr.go): when the gateway is
//     saturated, held submissions dispatch across clients in proportion
//     to their configured weights instead of FIFO, so a flooding client
//     cannot starve polite ones;
//   - a drain-rate estimator (stats.RateRing, shared with rumord):
//     Retry-After values are derived from the observed completion rate,
//     not a constant.
//
// Every submission resolves to exactly one of four outcomes — admitted,
// throttled, shed, or canceled — so the controller's counters obey a
// conservation law on any consistent snapshot:
//
//	submitted == dispatched + throttled + shed + canceled + queued_now
//
// which the soak harness asserts on every /metrics scrape.
package admission

import (
	"net"
	"net/netip"
)

// KeyHeader is the HTTP header clients use to identify themselves.
const KeyHeader = "X-API-Key"

// maxKeyLen bounds accepted API keys; anything longer is treated as
// absent rather than minting an unbounded identity space.
const maxKeyLen = 64

// sharedIdentity buckets requests whose remote address cannot be parsed
// at all (no key, no host:port). They all share one identity — the safe
// failure mode is one over-grouped bucket, never a fresh bucket per
// malformed request.
const sharedIdentity = "addr:unknown"

// ValidKey reports whether s is an acceptable API key: 1..64 characters
// drawn from [A-Za-z0-9._-]. Anything else — empty, overlong, spaces,
// control bytes, unicode — is rejected, and identity falls back to the
// remote address.
func ValidKey(s string) bool {
	if len(s) == 0 || len(s) > maxKeyLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Identity resolves a request to a stable client identity.
//
// A well-formed API key wins: "key:<key>", keyed=true. Otherwise the
// remote address is canonicalized — host split from port, parsed as an
// IP, and re-rendered in canonical form — so "[::1]:5, [0:0::1]:6,
// ::1" are all one client, not three. Unparseable input maps to one
// shared identity, never a panic and never a per-request bucket.
func Identity(apiKey, remoteAddr string) (id string, keyed bool) {
	if ValidKey(apiKey) {
		return "key:" + apiKey, true
	}
	host := remoteAddr
	if h, _, err := net.SplitHostPort(remoteAddr); err == nil {
		host = h
	}
	// Tolerate a bracketed host with no port ("[::1]").
	if len(host) >= 2 && host[0] == '[' && host[len(host)-1] == ']' {
		host = host[1 : len(host)-1]
	}
	addr, err := netip.ParseAddr(host)
	if err != nil {
		return sharedIdentity, false
	}
	// Strip the IPv6 zone: one host, one client, whatever interface the
	// connection arrived on. Unmap 4-in-6 so ::ffff:10.0.0.1 == 10.0.0.1.
	addr = addr.WithZone("").Unmap()
	return "addr:" + addr.String(), false
}
