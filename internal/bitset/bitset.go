// Package bitset provides a dense, fixed-capacity bit set used to track
// informed vertices and informed agents in the simulation engine.
//
// The zero value is an empty set of capacity zero; use New to allocate a set
// with a given capacity. All indices must be in [0, Len()).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set backed by a []uint64.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set holding bits [0, n).
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// Len returns the capacity of the set (number of addressable bits).
func (s *Set) Len() int { return s.n }

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CopyFrom overwrites s with the contents of o. Both sets must have the same
// capacity.
func (s *Set) CopyFrom(o *Set) {
	s.checkSameLen(o)
	copy(s.words, o.words)
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// NextClear returns the smallest index >= from whose bit is clear, or -1 if
// every bit in [from, Len()) is set.
func (s *Set) NextClear(from int) int {
	if from >= s.n {
		return -1
	}
	if from < 0 {
		from = 0
	}
	wi := from / wordBits
	// Mask off bits below `from` in the first word by pretending they are set.
	w := s.words[wi] | ((1 << (uint(from) % wordBits)) - 1)
	for {
		inv := ^w
		if inv != 0 {
			i := wi*wordBits + bits.TrailingZeros64(inv)
			if i >= s.n {
				return -1
			}
			return i
		}
		wi++
		if wi >= len(s.words) {
			return -1
		}
		w = s.words[wi]
	}
}

// Words exposes the backing words (bit i lives at words[i/64], bit i%64).
// The slice aliases internal storage: callers may read it — e.g. to iterate
// set bits shard-by-shard without per-bit calls — but must not modify it.
// Bits at positions >= Len() in the final word are always clear: no method
// sets a bit outside [0, Len()).
func (s *Set) Words() []uint64 { return s.words }

// CommitNew ORs src into s one word at a time and calls fn for each bit
// the merge newly set, in increasing order. It is the word-parallel form
// of "for each i in src: if !s.Test(i) { s.Set(i); fn(i) }": the
// new-bits word src &^ s computes 64 membership tests in one operation,
// and wholly-redundant words (everything in src already in s — the common
// case late in an epidemic) cost one load and one AND-NOT instead of 64
// test-and-set calls. Both sets must have the same capacity.
func (s *Set) CommitNew(src *Set, fn func(i int)) {
	s.checkSameLen(src)
	for wi, w := range src.words {
		nw := w &^ s.words[wi]
		if nw == 0 {
			continue
		}
		s.words[wi] |= nw
		for ; nw != 0; nw &= nw - 1 {
			fn(wi*wordBits + bits.TrailingZeros64(nw))
		}
	}
}

// ForEach calls fn for every set bit in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &^= 1 << uint(b)
		}
	}
}

// String renders the set as a compact list of set indices, for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) checkSameLen(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, o.n))
	}
}
