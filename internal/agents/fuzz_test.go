package agents

import (
	"fmt"
	"reflect"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// FuzzWalkLanes: lane t of a K-lane system equals a one-lane system built
// from the same RNG — positions, previous positions and respawn lists,
// round by round — on a small random graph, for any K ≤ 8, churn rate,
// laziness and sequence of active masks. The one-lane twin is
// masked in the rounds its lane is.
func FuzzWalkLanes(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0), false, uint64(7), uint8(20))
	f.Add(uint64(2), uint8(8), uint8(40), true, uint64(9), uint8(3))
	f.Add(uint64(3), uint8(1), uint8(255), false, uint64(0), uint8(70))
	f.Fuzz(func(t *testing.T, seed uint64, k, churn uint8, lazy bool, maskSeed uint64, count uint8) {
		rng := xrand.New(seed)
		n := 2 + rng.IntN(40)
		g, err := graph.FromSpec(fmt.Sprintf("gnp:%d,%g", n, 0.05+0.9*rng.Float64()), seed)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() == 0 {
			t.Skip("no edges")
		}
		k = 1 + k%8
		cfg := Config{Count: 1 + int(count), Lazy: lazy, ChurnRate: float64(churn) / 256}
		lanes := func() []*xrand.RNG {
			rngs := make([]*xrand.RNG, k)
			for tr := range rngs {
				rngs[tr] = xrand.New(xrand.TrialSeed(seed, tr))
			}
			return rngs
		}
		w, err := NewBatched(g, cfg, lanes())
		if err != nil {
			t.Fatal(err)
		}
		ref := oneLaneSystems(t, g, cfg, lanes())
		masks := xrand.New(maskSeed)
		active := make([]bool, k)
		for r := 1; r <= 12; r++ {
			for tr := range active {
				active[tr] = masks.IntN(4) != 0
			}
			w.Step(active)
			for tr, one := range ref {
				one.Step(active[tr : tr+1])
				if !reflect.DeepEqual(w.Lane(tr), one.Lane(0)) || !reflect.DeepEqual(w.Prev(tr), one.Prev(0)) {
					t.Fatalf("round %d lane %d: positions diverge from the one-lane system", r, tr)
				}
				if got, want := w.Respawned(tr), one.Respawned(0); !reflect.DeepEqual(append([]int{}, got...), append([]int{}, want...)) {
					t.Fatalf("round %d lane %d: respawns %v, one-lane %v", r, tr, got, want)
				}
				if !active[tr] && len(w.Respawned(tr)) != 0 {
					t.Fatalf("round %d: masked lane %d respawned %v", r, tr, w.Respawned(tr))
				}
			}
		}
	})
}
