package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"rumor/internal/core"
	"rumor/internal/experiment"
	"rumor/internal/graph"
)

// enginePoint is one (graph, protocol) point of the engine-sweep table.
type enginePoint struct {
	graph string
	proto experiment.Proto
}

// engineTrials is the trial count of every point: the paper's tables are
// distributions over trials, and 16 fills the engine's lane bundles.
const engineTrials = 16

// engineSamplerSeed fixes the realization of the table's random graphs:
// the graph is part of the workload's definition, like its size, so only
// the protocol randomness follows -seed.
const engineSamplerSeed = 1

// builtGraph is a table graph made in set-up, with its default source.
type builtGraph struct {
	g   *graph.Graph
	src graph.Vertex
}

// pointRun is one point of one pass.
type pointRun struct {
	pt      enginePoint
	n       int           // vertices
	wall    time.Duration // Normalize + RunOn
	results []core.Result
}

// mix hashes a seed and an index into 64 well-mixed bits (the splitmix64
// finalizer): the source of every choice the generators make.
func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15*(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ z>>31
}

// specSeed derives a seed for a spec. Seeds stay below 2^53 so they
// survive any JSON reader, and are never 0, which specs read as "default".
func specSeed(a, b uint64) uint64 { return mix(a, b)&(1<<53-1) | 1 }

func buildTableGraphs(specs []string) (map[string]builtGraph, error) {
	out := make(map[string]builtGraph, len(specs))
	for _, s := range specs {
		p, err := graph.ParseSpec(s)
		if err != nil {
			return nil, err
		}
		g, err := p.BuildSeeded(engineSamplerSeed)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", s, err)
		}
		out[s] = builtGraph{g, experiment.DefaultSource(g)}
	}
	return out, nil
}

// enginePass runs every point of the table once, trials trials each, with
// seeds derived from passSeed, through RunSpec.Normalize → RunOn on the
// graphs set-up built.
func enginePass(points []enginePoint, graphs map[string]builtGraph, trials int, passSeed uint64, tr *tracer) ([]pointRun, error) {
	runs := make([]pointRun, 0, len(points))
	for i, pt := range points {
		spec := experiment.DefaultRunSpec()
		spec.Graph, spec.Protocol, spec.Trials = pt.graph, pt.proto, trials
		spec.GraphSeed = engineSamplerSeed
		spec.Seed = specSeed(passSeed, uint64(i))
		bg := graphs[pt.graph]
		t0 := time.Now()
		sp := tr.begin("RunSpec.Normalize", "experiment", -1, i)
		norm, err := spec.Normalize()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("RunSpec.RunOn "+string(pt.proto), "core", -1, i)
		results, err := norm.RunOn(bg.g, bg.src, nil)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", pt.graph, pt.proto, err)
		}
		runs = append(runs, pointRun{pt: pt, n: bg.g.N(), wall: time.Since(t0), results: results})
	}
	return runs, nil
}

// resultDigest hashes what a pass computed, so two passes over the same
// seeds can be compared whatever their parallelism.
func resultDigest(runs []pointRun) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, r := range runs {
		for _, res := range r.results {
			put(int64(res.Rounds))
			put(res.Messages)
			put(int64(res.AllAgentsRound))
			if res.Completed {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func passSeed(seed uint64, pass int) uint64 { return mix(seed^0x656e67696e65, uint64(pass)) }

type engineSweep struct {
	e      *env
	points []enginePoint
	graphs map[string]builtGraph
	pass0  []pointRun // first measured pass, kept for verification
}

func newEngineSweep(e *env) *engineSweep {
	return &engineSweep{e: e, points: rowPoints(e.size.engine)}
}

// setUp builds the table's graphs and runs a one-trial pass over them, so
// the per-graph structures the engine builds lazily (walk index, alias
// tables) exist before timing starts.
func (w *engineSweep) setUp(ctx context.Context) error {
	setGOMAXPROCS(w.e.procs)
	graphs, err := buildTableGraphs(rowGraphs(w.e.size.engine))
	if err != nil {
		return err
	}
	w.graphs = graphs
	_, err = enginePass(w.points, w.graphs, 1, passSeed(w.e.seed, -1), nil)
	return err
}

func (w *engineSweep) tearDown() { w.graphs = nil }

func (w *engineSweep) digest() string {
	h := sha256.New()
	for _, pt := range w.points {
		fmt.Fprintf(h, "%s|%s|%d\n", pt.graph, pt.proto, engineTrials)
	}
	for r := range 64 {
		fmt.Fprintf(h, "%d\n", passSeed(w.e.seed, r))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measure runs whole passes until d has passed. The op is a trial; the
// latency sample is one pass — the time to regenerate the whole table,
// which is what the researcher waits for. (The median over single points
// would sit in a gap between two point sizes and flip between them.)
func (w *engineSweep) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	win := &window{}
	cpu0 := selfCPU()
	start := time.Now()
	for pass := 0; time.Since(start) < d; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p0 := time.Now()
		runs, err := enginePass(w.points, w.graphs, engineTrials, passSeed(w.e.seed, pass), tr)
		if err != nil {
			return nil, err
		}
		passWall := time.Since(p0)
		if pass == 0 {
			w.pass0 = runs
		}
		win.latencies = append(win.latencies, float64(passWall)/1e6)
		inPoints := time.Duration(0)
		for _, r := range runs {
			inPoints += r.wall
			for _, res := range r.results {
				win.attempted++
				if !res.Completed {
					win.failed++
				}
			}
		}
		win.overhead = append(win.overhead, float64(passWall-inPoints)/1e3/float64(len(runs)))
	}
	win.wall = time.Since(start)
	win.cpu = selfCPU() - cpu0
	return win, nil
}

// medianRounds is the median broadcast time of one point of a pass.
func medianRounds(runs []pointRun, family string, proto experiment.Proto) (float64, bool) {
	for _, r := range runs {
		if strings.HasPrefix(r.pt.graph, family+":") && r.pt.proto == proto {
			rounds := make([]float64, len(r.results))
			for i, res := range r.results {
				rounds[i] = float64(res.Rounds)
			}
			return median(rounds), true
		}
	}
	return 0, false
}

// verify re-runs the first measured pass on one processor and demands the
// same results (the engine's determinism contract), then checks the
// paper's Lemma 2 separation on the star: push needs Θ(n log n) rounds,
// visit-exchange O(log n).
func (w *engineSweep) verify(ctx context.Context) error {
	setGOMAXPROCS(1)
	serial, err := enginePass(w.points, w.graphs, engineTrials, passSeed(w.e.seed, 0), nil)
	setGOMAXPROCS(w.e.procs)
	if err != nil {
		return err
	}
	if a, b := resultDigest(w.pass0), resultDigest(serial); a != b {
		return fmt.Errorf("pass 0 results differ between GOMAXPROCS=%d (%s) and 1 (%s)", w.e.procs, a[:12], b[:12])
	}
	push, ok1 := medianRounds(w.pass0, "star", experiment.ProtoPush)
	visitx, ok2 := medianRounds(w.pass0, "star", experiment.ProtoVisitX)
	if !ok1 || !ok2 {
		return fmt.Errorf("table has no star push and visitx points")
	}
	if want := w.e.size.starRatio; push <= want*visitx {
		return fmt.Errorf("star median rounds: push %.0f is not > %.0f× visitx %.0f", push, want, visitx)
	}
	return nil
}

func (w *engineSweep) peakRSSMiB() (float64, error) { return selfPeakRSSMiB() }
