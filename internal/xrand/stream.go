package xrand

import (
	"math"
	"math/bits"
)

// Counter-based randomness for deterministic parallelism.
//
// A Stream is a tiny SplitMix64-style generator whose initial state is a
// pure function of a (seed, unit, round) triple. Because every (agent,
// round) or (vertex, round) pair owns an independent stream, a simulation
// round can be sharded across any number of workers and still draw exactly
// the same randomness: no draw depends on execution order, shard count, or
// how many values other units consumed. This is the contract the parallel
// round engine in internal/core and internal/agents relies on.
//
// The construction follows the counter-based design of Salmon et al.
// ("Parallel random numbers: as easy as 1, 2, 3", SC'11) in spirit, with
// SplitMix64's finalizer as the bijective mixer: the key (seed, unit,
// round) is combined with distinct odd multipliers into the initial state,
// and successive draws advance the state by the golden-ratio increment
// before mixing, exactly as SplitMix64 does.

const (
	// splitMixGamma is SplitMix64's golden-ratio state increment.
	splitMixGamma = 0x9e3779b97f4a7c15
	// unitMult and roundMult spread the unit and round keys across the
	// 64-bit state. They are distinct from splitMixGamma so that
	// (unit, draw-index) and (unit, round) pairs cannot alias: with a
	// shared constant, unit u at draw k+1 would collide with unit u+1 at
	// draw k.
	unitMult  = 0xa24baed4963ee407
	roundMult = 0x9fb21c651e98df25
)

// mix64 is SplitMix64's output finalizer: a strong 64-bit avalanche mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// streamState returns the initial Stream state for a (seed, unit, round)
// key. It is shared by NewStream and the single-draw helpers. The key is
// combined additively so hot loops over consecutive units can advance the
// state incrementally (one add per unit) instead of recomputing the
// multiplies; mix64 provides all the avalanche.
func streamState(seed, unit, round uint64) uint64 {
	return seed + unit*unitMult + round*roundMult
}

// UnitStride is the stream-state difference between consecutive units of
// the same (seed, round): MixBase(seed, u+1, r) == MixBase(seed, u, r) +
// UnitStride. Loops over a unit range use it to derive each unit's first
// draw with one add + Mix.
const UnitStride = unitMult

// DrawStride is the stream-state difference between consecutive draws of
// one stream (SplitMix64's gamma): the k-th draw of a stream with base b
// is Mix(b + k*DrawStride).
const DrawStride = splitMixGamma

// MixBase returns the pre-mix state of stream (seed, unit, round)'s first
// draw, for incremental hot loops: Mix(MixBase(s,u,r)) == Mix3(s,u,r).
func MixBase(seed, unit, round uint64) uint64 {
	return streamState(seed, unit, round) + splitMixGamma
}

// Mix finalizes a stream state into a draw (see MixBase/UnitStride).
func Mix(base uint64) uint64 { return mix64(base) }

// Trial lane
//
// Batched multi-trial engines need a fourth key lane besides (seed, unit,
// round): the trial index. To keep batched draws bit-identical to the
// serial per-trial path, the lane is realized by seed derivation rather
// than a fourth multiplier: trial t's streams are keyed
// (TrialSeed(seed, t), unit, round), where TrialSeed is exactly the
// derivation core.RunMany applies when it spawns trial RNGs. A protocol
// constructor that draws its stream seed from the trial RNG therefore
// obtains the same seed whether the trial runs serially or inside a batch.

// TrialSeed is the trial lane of the stream keying: the master seed handed
// to trial t of a multi-trial run, making the full key of a draw
// (seed, trial, unit, round) — realized as NewStream(TrialSeed(seed, t),
// unit, round). It is exactly RunMany's per-trial derivation (Derive), so
// engines that construct trial RNGs or streams from it reproduce the
// serial per-trial draws bit for bit.
func TrialSeed(seed uint64, trial int) uint64 {
	return Derive(seed, trial)
}

// Stream is a counter-based deterministic generator for one simulation
// unit in one round. It is a value type: construction costs two multiplies
// and allocates nothing, so hot loops create one per unit per round.
type Stream struct {
	state uint64
}

// NewStream returns the stream keyed by (seed, unit, round). Identical
// keys always produce identical draw sequences; distinct keys produce
// well-dispersed, effectively independent sequences.
func NewStream(seed, unit, round uint64) Stream {
	return Stream{state: streamState(seed, unit, round)}
}

// Uint64 returns the next 64-bit draw.
func (s *Stream) Uint64() uint64 {
	s.state += splitMixGamma
	return mix64(s.state)
}

// Mix3 returns the first draw of NewStream(seed, unit, round) without
// constructing a Stream. It is the single-draw fast path for hot loops
// that need exactly one value per unit per round.
func Mix3(seed, unit, round uint64) uint64 {
	return mix64(streamState(seed, unit, round) + splitMixGamma)
}

// IntN returns a draw uniform on [0, n) for n > 0. It uses Lemire's
// multiply-shift reduction; the bias (at most n/2^64) is far below
// anything a simulation can observe, and keeping every draw a single
// Uint64 is what lets draw counts stay position-independent.
func (s *Stream) IntN(n int) int {
	hi, _ := bits.Mul64(s.Uint64(), uint64(n))
	return int(hi)
}

// ReduceN maps an existing 64-bit draw onto [0, n) with the same
// multiply-shift reduction IntN uses.
func ReduceN(u uint64, n int) int {
	hi, _ := bits.Mul64(u, uint64(n))
	return int(hi)
}

// ReduceDeg maps a draw onto [0, deg) exactly as the packed walk index
// does: an AND mask for power-of-two degrees, multiply-shift otherwise.
// Fallback samplers use it so packed and unpacked paths pick identical
// neighbors from identical draws. deg must be positive.
func ReduceDeg(u uint64, deg int) int {
	if deg&(deg-1) == 0 {
		return int(u) & (deg - 1)
	}
	return ReduceN(u, deg)
}

// ReduceDeg32 is ReduceDeg for the 32-bit lazy-walk draw scheme, matching
// graph.WalkTarget32's reduction.
func ReduceDeg32(u uint32, deg int) int {
	if deg&(deg-1) == 0 {
		return int(u) & (deg - 1)
	}
	return int(uint64(u) * uint64(deg) >> 32)
}

// Float64 returns a draw uniform on [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) * 0x1.0p-53
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Geometric64 returns a draw from the geometric distribution on
// {1, 2, ...} with success probability p: the index of the first success
// in a Bernoulli(p) sequence, sampled by inversion in one Float64 draw.
// It is the skip-length primitive of the edge-stream samplers (gnp,
// chunglu), where m expected draws replace n² coin flips. p must be in
// (0, 1]; a gap past int64 range saturates to MaxInt64, so callers compare
// the skip against their remaining range before adding it.
func (s *Stream) Geometric64(p float64) int64 { return geometric(s.Float64(), LogQ(p)) }

// LogQ returns ln(1−p), the per-distribution constant of the geometric
// inversion, for loops that draw many skips at one p. p ≥ 1 maps to −Inf,
// which makes every draw 1. p must be positive.
func LogQ(p float64) float64 {
	if p <= 0 {
		panic("xrand: geometric draw requires p > 0")
	}
	return math.Log1p(-min(p, 1))
}

// GeometricLogQ is Geometric64 with ln(1−p) supplied as logQ = LogQ(p):
// the same draw, the same value, one Float64 consumed at every p.
func (s *Stream) GeometricLogQ(logQ float64) int64 { return geometric(s.Float64(), logQ) }

// geometric inverts the geometric CDF at u ∈ [0, 1): ceil(ln(1−u)/logQ),
// at least 1. 1−u is in (0, 1], so the log is finite and ≤ 0. A quotient
// at or past 2⁶³ (p below about 4·10⁻¹⁸, or +Inf at subnormal p)
// saturates to MaxInt64 rather than going through float→int64, which is
// implementation-defined out of range (MinInt64 on amd64, a skip of 1).
// It is the package's one geometric inversion; every geometric draw goes
// through it.
func geometric(u, logQ float64) int64 {
	x := math.Ceil(math.Log(1-u) / logQ)
	if x >= 0x1p63 {
		return math.MaxInt64
	}
	return max(1, int64(x))
}

// BernoulliThreshold converts p into a threshold comparable against a raw
// Uint64 draw: u < BernoulliThreshold(p) holds with probability p (up to
// 2^-64 rounding). Precomputing the threshold turns per-draw Bernoulli
// trials into a single integer compare.
func BernoulliThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	return uint64(p * 0x1.0p64)
}
