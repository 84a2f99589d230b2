package agents

import (
	"fmt"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// FuzzWalkKernels: the blocked kernels step every agent where the
// per-agent stream path (stepStreams) steps it — positions, previous
// positions and respawn lists, round by round. Each input runs four small
// graphs: a fuzzed G(n, p) (non-regular, or regular by chance), a star
// (never regular: the branchless bodies), a cycle (regular of degree two:
// the power-of-two slot bodies) and a complete graph whose degree is no
// power of two (the multiply-shift slot bodies), with simple or lazy
// walks, churn-free and, at a nonzero churn rate, churned (stepStreams
// itself, which Step must route churn to). The seed corpus reaches every
// walk body.
func FuzzWalkKernels(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0), false, uint64(7), uint8(20))
	f.Add(uint64(2), uint8(8), uint8(40), true, uint64(9), uint8(3))
	f.Add(uint64(3), uint8(1), uint8(255), false, uint64(0), uint8(70))
	f.Fuzz(func(t *testing.T, seed uint64, size, churn uint8, lazy bool, walkSeed uint64, count uint8) {
		n := 3 + int(size)%40
		if (n-1)&(n-2) == 0 {
			n++ // complete:n must not be power-of-two regular
		}
		p := 0.05 + 0.9*xrand.New(seed).Float64()
		specs := []string{fmt.Sprintf("gnp:%d,%g", n, p), fmt.Sprintf("star:%d", n), fmt.Sprintf("cycle:%d", n), fmt.Sprintf("complete:%d", n)}
		// Up to 1276 agents: full 512-agent blocks and a ragged tail.
		agents := 1 + int(count)*5
		for _, spec := range specs {
			g, err := graph.FromSpec(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			if g.M() == 0 {
				continue // a G(n, p) draw with no edge
			}
			for _, rate := range []float64{0, float64(churn) / 256} {
				cfg := Config{Count: agents, Lazy: lazy, ChurnRate: rate}
				if err := kernelsMatchStreams(g, cfg, walkSeed, 12); err != nil {
					t.Fatalf("%s %+v: %v", spec, cfg, err)
				}
			}
		}
	})
}
