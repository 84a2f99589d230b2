package bitset

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		s := New(n)
		if s.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, s.Len())
		}
		if s.Count() != 0 {
			t.Errorf("New(%d).Count() = %d, want 0", n, s.Count())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetTestClear(t *testing.T) {
	s := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		s.Set(i)
	}
	for _, i := range idx {
		if !s.Test(i) {
			t.Errorf("Test(%d) = false after Set", i)
		}
	}
	if got := s.Count(); got != len(idx) {
		t.Errorf("Count() = %d, want %d", got, len(idx))
	}
	s.Clear(64)
	if s.Test(64) {
		t.Error("Test(64) = true after Clear")
	}
	if got := s.Count(); got != len(idx)-1 {
		t.Errorf("Count() = %d, want %d", got, len(idx)-1)
	}
}

func TestNextClear(t *testing.T) {
	s := New(200)
	for i := range 200 {
		s.Set(i)
	}
	if got := s.NextClear(0); got != -1 {
		t.Errorf("NextClear on full set = %d, want -1", got)
	}
	s.Clear(77)
	s.Clear(150)
	if got := s.NextClear(0); got != 77 {
		t.Errorf("NextClear(0) = %d, want 77", got)
	}
	if got := s.NextClear(78); got != 150 {
		t.Errorf("NextClear(78) = %d, want 150", got)
	}
	if got := s.NextClear(151); got != -1 {
		t.Errorf("NextClear(151) = %d, want -1", got)
	}
	if got := s.NextClear(400); got != -1 {
		t.Errorf("NextClear(400) = %d, want -1", got)
	}
	if got := s.NextClear(-5); got != 77 {
		t.Errorf("NextClear(-5) = %d, want 77", got)
	}
}

func TestNextClearEmpty(t *testing.T) {
	s := New(70)
	if got := s.NextClear(0); got != 0 {
		t.Errorf("NextClear(0) on empty = %d, want 0", got)
	}
	if got := s.NextClear(69); got != 69 {
		t.Errorf("NextClear(69) on empty = %d, want 69", got)
	}
}

func TestCopyFromClone(t *testing.T) {
	a := New(77)
	a.Set(5)
	c := a.Clone()
	c.Set(6)
	if a.Test(6) {
		t.Error("Clone aliases the original")
	}
	d := New(77)
	d.CopyFrom(a)
	if !d.Test(5) || d.Count() != 1 {
		t.Errorf("CopyFrom result = %v", d)
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched capacity did not panic")
		}
	}()
	New(10).CopyFrom(New(11))
}

func TestForEachOrder(t *testing.T) {
	s := New(300)
	want := []int{0, 1, 64, 128, 255, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ForEach[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Set(1)
	s.Set(9)
	if got := s.String(); got != "{1,9}" {
		t.Errorf("String() = %q, want {1,9}", got)
	}
	if got := New(3).String(); got != "{}" {
		t.Errorf("empty String() = %q, want {}", got)
	}
}

// TestQuickAgainstMap cross-checks the bitset against a map-based reference
// implementation under a random operation sequence.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed uint64, opsRaw []byte) bool {
		const n = 257
		rng := rand.New(rand.NewPCG(seed, 17))
		s := New(n)
		ref := make(map[int]bool)
		for _, op := range opsRaw {
			i := rng.IntN(n)
			switch op % 3 {
			case 0:
				s.Set(i)
				ref[i] = true
			case 1:
				s.Clear(i)
				delete(ref, i)
			case 2:
				if s.Test(i) != ref[i] {
					return false
				}
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		ok := true
		s.ForEach(func(i int) {
			if !ref[i] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNextClear verifies NextClear against a linear scan.
func TestQuickNextClear(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 191
		rng := rand.New(rand.NewPCG(seed, 3))
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.IntN(2) == 0 {
				s.Set(i)
			}
		}
		for from := 0; from < n; from++ {
			want := -1
			for i := from; i < n; i++ {
				if !s.Test(i) {
					want = i
					break
				}
			}
			if got := s.NextClear(from); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCommitNew verifies CommitNew against the scalar test-and-set loop:
// identical resulting set, and the callback sees exactly the newly set
// bits in increasing order.
func TestCommitNew(t *testing.T) {
	const n = 200
	s := New(n)
	src := New(n)
	for _, i := range []int{0, 1, 63, 64, 65, 130, 199} {
		s.Set(i)
	}
	for _, i := range []int{1, 2, 63, 66, 130, 131, 198, 199} {
		src.Set(i)
	}
	want := []int{2, 66, 131, 198}
	var got []int
	s.CommitNew(src, func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("CommitNew reported %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("CommitNew reported %v, want %v", got, want)
		}
	}
	// The merged set is the union.
	for i := 0; i < n; i++ {
		wantBit := false
		for _, j := range []int{0, 1, 63, 64, 65, 130, 199, 2, 66, 131, 198} {
			if i == j {
				wantBit = true
			}
		}
		if s.Test(i) != wantBit {
			t.Fatalf("bit %d = %v after CommitNew, want %v", i, s.Test(i), wantBit)
		}
	}
}

// TestCommitNewRedundant: a src wholly contained in s must set nothing and
// never invoke the callback (the one-AND-NOT-per-word fast path).
func TestCommitNewRedundant(t *testing.T) {
	s := New(128)
	src := New(128)
	for i := 0; i < 128; i += 3 {
		s.Set(i)
		src.Set(i)
	}
	s.CommitNew(src, func(i int) {
		t.Fatalf("callback invoked for bit %d on redundant commit", i)
	})
	if got := s.Count(); got != 43 {
		t.Fatalf("Count = %d after redundant commit, want 43", got)
	}
}

// TestCommitNewCapacityMismatchPanics mirrors the CopyFrom contract.
func TestCommitNewCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CommitNew with mismatched capacities did not panic")
		}
	}()
	New(64).CommitNew(New(65), func(int) {})
}

// TestQuickCommitNew cross-checks CommitNew against the scalar
// Test/Set/append loop on random sets.
func TestQuickCommitNew(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 193
		rng := rand.New(rand.NewPCG(seed, 9))
		s := New(n)
		src := New(n)
		ref := New(n)
		for i := 0; i < n; i++ {
			if rng.IntN(2) == 0 {
				s.Set(i)
				ref.Set(i)
			}
			if rng.IntN(3) == 0 {
				src.Set(i)
			}
		}
		var wantNew []int
		for i := 0; i < n; i++ {
			if src.Test(i) && !ref.Test(i) {
				ref.Set(i)
				wantNew = append(wantNew, i)
			}
		}
		var gotNew []int
		s.CommitNew(src, func(i int) { gotNew = append(gotNew, i) })
		if len(gotNew) != len(wantNew) {
			return false
		}
		for k := range wantNew {
			if gotNew[k] != wantNew[k] {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if s.Test(i) != ref.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
