package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestFromSpecAllFamilies(t *testing.T) {
	cases := []struct {
		spec  string
		wantN int
	}{
		{"star:10", 11},
		{"doublestar:5", 12},
		{"heavytree:4", 15},
		{"siamesetree:4", 29},
		{"cyclestars:3", 39},
		{"complete:7", 7},
		{"cycle:9", 9},
		{"path:5", 5},
		{"bintree:3", 7},
		{"hypercube:4", 16},
		{"torus:3,4", 12},
		{"grid:2,5", 10},
		{"ringcliques:3,4", 12},
		{"cliquepath:3,4", 12},
		{"randreg:20,4", 20},
		{"gnp:30,0.2", 30},
		{"chunglu:50,2.5,5", 50},
	}
	for _, c := range cases {
		g, err := FromSpec(c.spec, 1)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if g.N() != c.wantN {
			t.Errorf("%s: N = %d, want %d", c.spec, g.N(), c.wantN)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", c.spec, err)
		}
	}
}

func TestFromSpecWhitespaceAndCase(t *testing.T) {
	g, err := FromSpec(" Star:8", 2)
	if err != nil || g.N() != 9 {
		t.Errorf("case/space-insensitive parse failed: %v", err)
	}
	g, err = FromSpec("torus: 3 , 3", 2)
	if err != nil || g.N() != 9 {
		t.Errorf("parameter whitespace parse failed: %v", err)
	}
}

func TestFromSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"unknown:5",
		"star",           // missing parameter
		"star:x",         // non-integer
		"star:0",         // out of range (panic converted to error)
		"torus:3",        // wrong arity
		"hypercube:99",   // out of range
		"gnp:10",         // wrong arity
		"gnp:10,zz",      // bad float
		"chunglu:10,2,3", // beta out of range
		"randreg:10,11",  // d >= n
	}
	for _, spec := range bad {
		if _, err := FromSpec(spec, 3); err == nil {
			t.Errorf("FromSpec(%q) succeeded, want error", spec)
		}
	}
}

// TestParseSpecDomain: the bounds a family can state without building
// are checked at parse time, with the bound named, and the values just
// inside them still parse.
func TestParseSpecDomain(t *testing.T) {
	for _, tc := range []struct {
		spec, bound string // bound == "" means the spec parses
	}{
		{"hypercube:0", "[1,30]"},
		{"hypercube:31", "[1,30]"},
		{"hypercube:70", "[1,30]"},
		{"hypercube:1", ""},
		{"hypercube:30", ""},
		{"randreg:9,3", "n*d even"},
		{"randreg:10,11", "0 < d < n"},
		{"randreg:10,10", "0 < d < n"},
		{"randreg:10,0", "0 < d < n"},
		{"randreg:10,-2", "0 < d < n"},
		{"randreg:10,9", ""},
		{"randreg:9,4", ""},
		{"star:3000000000", "2147483647"},
		{"star:2147483647", "2147483647"},
		{"star:2147483646", ""},
	} {
		_, err := ParseSpec(tc.spec)
		switch {
		case tc.bound == "" && err != nil:
			t.Errorf("ParseSpec(%q): %v, want it to parse", tc.spec, err)
		case tc.bound != "" && err == nil:
			t.Errorf("ParseSpec(%q) parsed, want an error naming %s", tc.spec, tc.bound)
		case tc.bound != "" && !strings.Contains(err.Error(), tc.bound):
			t.Errorf("ParseSpec(%q): %v, want it to name %s", tc.spec, err, tc.bound)
		}
	}
}

func TestSpecFamiliesCoverSwitch(t *testing.T) {
	for _, f := range SpecFamilies() {
		name, _, _ := strings.Cut(f, ":")
		// Each listed family must at least be recognized (parameter errors
		// are fine, unknown-family errors are not).
		_, err := FromSpec(name+":0", 4)
		if err != nil && strings.Contains(err.Error(), "unknown family") {
			t.Errorf("listed family %q not recognized by FromSpec", name)
		}
	}
}

func TestFromSpecBarabasi(t *testing.T) {
	g, err := FromSpec("barabasi:60,3", 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 60 {
		t.Errorf("N = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalSpecNormalizes(t *testing.T) {
	cases := []struct{ in, want string }{
		{"star:10", "star:10"},
		{" Star : 10 ", "star:10"},
		{"GNP:30,0.20", "gnp:30,0.2"},
		{"gnp:30,.2", "gnp:30,0.2"},
		{"chunglu:50, 2.50 ,5.0", "chunglu:50,2.5,5"},
		{"Torus: 3 , 4", "torus:3,4"},
	}
	for _, c := range cases {
		got, err := CanonicalSpec(c.in)
		if err != nil {
			t.Errorf("CanonicalSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("CanonicalSpec(%q) = %q, want %q", c.in, got, c.want)
		}
		// Canonical forms are fixed points.
		again, err := CanonicalSpec(got)
		if err != nil || again != got {
			t.Errorf("CanonicalSpec(%q) = %q, %v: not a fixed point", got, again, err)
		}
	}
}

func TestSpecHashStable(t *testing.T) {
	a, err := ParseSpec(" Star : 12 ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("star:12")
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("equivalent specs hash differently: %x vs %x", a.Hash(), b.Hash())
	}
	c, _ := ParseSpec("star:13")
	if a.Hash() == c.Hash() {
		t.Fatal("distinct specs collide")
	}
	// Pin one value so accidental grammar or hash changes are caught: the
	// hash is part of the serving layer's cache identity.
	if got := b.Hash(); got != 0xcfcae2e1de7ef3d6 {
		t.Fatalf("Hash(star:12) = %#x, want the pinned value (grammar/hash change?)", got)
	}
}

func TestParsedSpecRandom(t *testing.T) {
	for spec, want := range map[string]bool{
		"star:10":      false,
		"hypercube:4":  false,
		"randreg:20,4": true,
		"gnp:30,0.2":   true,
		"barabasi:9,2": true,
	} {
		p, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if p.Random() != want {
			t.Errorf("Random(%s) = %v, want %v", spec, p.Random(), want)
		}
	}
}

func TestFromSpecMatchesParseBuild(t *testing.T) {
	// FromSpec must be exactly ParseSpec+BuildSeeded at SamplerSeed: the
	// same graph for the same seed, including for random families.
	for _, spec := range []string{"doublestar:6", "randreg:24,4"} {
		g1, err := FromSpec(spec, 77)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := p.BuildSeeded(SamplerSeed(77))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeCSRBytes(t, g1), encodeCSRBytes(t, g2)) {
			t.Errorf("%s: FromSpec and ParseSpec+BuildSeeded disagree", spec)
		}
	}
}
