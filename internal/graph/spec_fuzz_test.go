package graph

import (
	"math"
	"testing"
)

// FuzzParseSpec pins the canonicalization properties the serving layer's
// request identity is built on: any spec that parses must canonicalize
// to a fixed point. Concretely, for every accepted input:
//
//   - its Canonical form re-parses (no accepted spec renders itself
//     unparseable);
//   - re-parsing the Canonical form yields the same Canonical form (one
//     round of canonicalization reaches the fixed point);
//   - the Hash — the identity sharded stores and caches key on — is the
//     same before and after the round trip, and the parsed parameters
//     are bit-identical.
//
// A violation would let two spellings of one simulation land in
// different cache entries (wasted recompute) or, worse, let one spelling
// alias another's entry.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		// One well-formed spec per family.
		"star:64", "doublestar:8", "heavytree:4", "siamesetree:4", "cyclestars:3",
		"complete:12", "cycle:10", "path:9", "bintree:5", "hypercube:6",
		"torus:4,5", "grid:3,7", "ringcliques:4,6", "cliquepath:3,5",
		"randreg:64,4", "gnp:32,0.25", "barabasi:50,3", "chunglu:40,2.5,6",
		// Spellings that must normalize: case, whitespace, numeric forms.
		"  STAR : 64 ", "Gnp:32,0.250", "gnp:32,2.5e-1", "gnp:32,.25",
		"torus: 4 , 5", "star:+7", "star:007", "chunglu:40,2.50,6.0",
		// Edge-of-grammar values the parser accepts (validation happens at
		// build time).
		"star:0", "star:-3", "gnp:10,NaN", "gnp:10,+Inf", "gnp:10,-0",
		"gnp:10,0x1p-2",
		// Rejected shapes, so the fuzzer explores the error paths too.
		"", "star", "star:", "star:1,2", "torus:4", "nope:3", "star:1.5",
		"star:1;2", "gnp:10,", "star:9999999999999999999999",
		// Either side of the domain bounds ParseSpec checks.
		"hypercube:30", "hypercube:31", "randreg:10,9", "randreg:9,3",
		"randreg:10,11", "star:2147483646", "star:2147483647",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			return // rejected inputs have no canonicalization contract
		}
		c := p.Canonical()
		p2, err := ParseSpec(c)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", c, spec, err)
		}
		if got := p2.Canonical(); got != c {
			t.Fatalf("canonicalization is not a fixed point: %q -> %q -> %q", spec, c, got)
		}
		if p2.Hash() != p.Hash() {
			t.Fatalf("hash changed across canonicalization of %q (%q): %x vs %x", spec, c, p.Hash(), p2.Hash())
		}
		if p2.Family != p.Family || p2.Random() != p.Random() {
			t.Fatalf("family/randomness changed across canonicalization of %q: %+v vs %+v", spec, p, p2)
		}
		if len(p2.Ints) != len(p.Ints) || len(p2.Floats) != len(p.Floats) {
			t.Fatalf("parameter arity changed across canonicalization of %q: %+v vs %+v", spec, p, p2)
		}
		for i := range p.Ints {
			if p2.Ints[i] != p.Ints[i] {
				t.Fatalf("int parameter %d changed across canonicalization of %q: %d vs %d", i, spec, p.Ints[i], p2.Ints[i])
			}
		}
		for i := range p.Floats {
			// Bit comparison: NaN must round-trip to the same NaN, -0 to -0.
			if math.Float64bits(p2.Floats[i]) != math.Float64bits(p.Floats[i]) {
				t.Fatalf("float parameter %d changed across canonicalization of %q: %v (%x) vs %v (%x)",
					i, spec, p.Floats[i], math.Float64bits(p.Floats[i]), p2.Floats[i], math.Float64bits(p2.Floats[i]))
			}
		}
	})
}
