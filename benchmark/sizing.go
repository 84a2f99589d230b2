package main

import "rumor/internal/experiment"

// engineRow is one graph of a table and the protocols run on it.
type engineRow struct {
	graph  string
	protos []experiment.Proto
}

var (
	allProtos   = experiment.Protos()
	callProtos  = []experiment.Proto{experiment.ProtoPush, experiment.ProtoPPull}
	agentProtos = []experiment.Proto{experiment.ProtoVisitX, experiment.ProtoMeetX, experiment.ProtoHybrid}
)

// sizing is everything about the workloads that has a size. There are two
// of them: the one the benchmark measures, and a tiny one for the test.
type sizing struct {
	engine []engineRow // engine-sweep table
	graphs []string    // graph-build table

	coldLight []engineRow // serve-cold: the points that take turns
	coldHeavy enginePoint // serve-cold: every coldHeavyOneIn-th request

	hotGraphs []string // serve-hot working set: graphs × all protocols × hotSeeds
	hotSeeds  int
	hotSweeps int // distinct sweeps in the hot mix

	walk      int     // requests of each serve list the traced run walks
	probeDiv  int     // the isolated probes loop this many times shorter
	starRatio float64 // push must need this many times visitx's rounds on the star
}

// fullSizing is what the benchmark measures. Every size is tuned against
// the time budget of a run at the commit that introduced the benchmark.
func fullSizing() sizing {
	return sizing{
		// No point may take more than 15 % of a pass and each protocol
		// holds 10-30 % of it: one n for all would let star push (~n ln n
		// tiny rounds) or heavytree visitx drown the rest, and push-pull,
		// the cheapest protocol on every family, would vanish — hence the
		// call protocols run the Theorem 1 families at twice the n of the
		// agent protocols. The mix is deliberate: the Fig. 1 families put
		// the boundary phase (many short rounds) beside the Theorem 1 and
		// social families' dense phase (few fat rounds), so a gain for one
		// phase that costs the other shows in the same number.
		engine: []engineRow{
			{"star:1024", allProtos}, {"doublestar:1024", allProtos}, {"heavytree:9", allProtos},
			{"siamesetree:8", allProtos}, {"cyclestars:12", allProtos},
			{"hypercube:16", callProtos}, {"hypercube:15", agentProtos},
			{"randreg:65536,16", callProtos}, {"randreg:32768,15", agentProtos},
			{"barabasi:16384,4", allProtos},
		},
		// The two deterministic families the paper's bounds are stated on
		// and the four seeded random ones, sized so that no family takes
		// more than 30 % of a pass (chunglu builds ~10× slower per edge
		// than the rest, hence its smaller n).
		graphs: []string{
			"star:500000", "hypercube:17", "gnp:500000,0.000016", "randreg:200000,8",
			"barabasi:300000,4", "chunglu:100000,2.5,8",
		},
		// Light points simulate in ~5-10 ms, the heavy one (star push,
		// ~n ln n rounds) in ~100 ms, so the tail of the latency
		// distribution lies well inside the heavy class and is set by
		// work, not by scheduler noise.
		coldLight: []engineRow{
			{"hypercube:12", allProtos}, {"star:4096", agentProtos},
			{"randreg:4096,12", allProtos}, {"barabasi:4096,4", allProtos},
		},
		coldHeavy: enginePoint{"star:4096", experiment.ProtoPush},
		// 2040 small results: four times what the two backends' memory
		// caches hold together, so the tail of the Zipf popularity lives
		// on disk.
		hotGraphs: []string{"hypercube:8", "randreg:256,8", "barabasi:256,4", "star:256"},
		hotSeeds:  102,
		hotSweeps: 16,
		walk:      200,
		probeDiv:  1,
		starRatio: 50,
	}
}

// smokeSizing exercises every code path in a few seconds; its numbers
// mean nothing. Its star is too small for Lemma 2's asymptotic gap to
// reach 50×.
func smokeSizing() sizing {
	return sizing{
		engine:    []engineRow{{"star:256", allProtos}, {"hypercube:6", allProtos}, {"barabasi:128,3", allProtos}},
		graphs:    []string{"star:2000", "hypercube:8", "gnp:2000,0.004", "randreg:1000,8", "barabasi:2000,4", "chunglu:2000,2.5,8"},
		coldLight: []engineRow{{"hypercube:6", allProtos}, {"star:64", agentProtos}},
		coldHeavy: enginePoint{"star:64", experiment.ProtoPush},
		hotGraphs: []string{"hypercube:5", "star:32"},
		hotSeeds:  8,
		hotSweeps: 2,
		walk:      8,
		probeDiv:  1000,
		starRatio: 5,
	}
}

// rowPoints flattens a table into its (graph, protocol) points.
func rowPoints(rows []engineRow) []enginePoint {
	var pts []enginePoint
	for _, row := range rows {
		for _, p := range row.protos {
			pts = append(pts, enginePoint{row.graph, p})
		}
	}
	return pts
}

// rowGraphs lists a table's graphs.
func rowGraphs(rows []engineRow) []string {
	specs := make([]string, len(rows))
	for i, row := range rows {
		specs[i] = row.graph
	}
	return specs
}
