package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readSet(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []result
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return set, nil
}

type runKey struct {
	workload string
	seed     uint64
}

// comparable checks that two sets measured the same work on the same
// host: equal stamps (the commit may differ — comparing commits is the
// point), the same (workload, seed) runs, and equal input digests.
func comparable(a, b []result) error {
	ha, hb := a[0].Host, b[0].Host
	ha.Commit, hb.Commit = "", ""
	for _, r := range append(a[1:], b...) {
		h := r.Host
		h.Commit = ""
		if h != ha {
			return fmt.Errorf("host stamps differ: %+v vs %+v", ha, h)
		}
	}
	digests := map[runKey]string{}
	for _, r := range a {
		if r.Trace {
			return fmt.Errorf("set holds traced runs; end-to-end metrics are measured with tracing off")
		}
		digests[runKey{r.Workload, r.Seed}] = r.Digest
	}
	if len(b) != len(digests) {
		return fmt.Errorf("sets hold %d and %d runs", len(digests), len(b))
	}
	for _, r := range b {
		d, ok := digests[runKey{r.Workload, r.Seed}]
		switch {
		case !ok:
			return fmt.Errorf("%s seed %d is in one set only", r.Workload, r.Seed)
		case d != r.Digest:
			return fmt.Errorf("%s seed %d: input digests differ, the sets did different work", r.Workload, r.Seed)
		case r.Seconds != a[0].Seconds:
			return fmt.Errorf("run lengths differ: %g s vs %g s", a[0].Seconds, r.Seconds)
		}
	}
	return nil
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) (q1, med, q3, rel float64) {
	if len(xs) < 2 {
		return xs[0], xs[0], xs[0], 0
	}
	q1, med, q3 = quartiles(xs)
	return q1, med, q3, ratio(q3-q1, med)
}

// verdict compares the runs b of a metric against the runs a, by the
// benchmark's own bound and the run-to-run spread: "worse" when b's
// median is worse than a's by more than the bound; "unresolved" when the
// spread of either side exceeds the bound, unless every run of one side
// beats every run of the other; "better" when b's median is better by
// more than a's own spread; otherwise "same".
func verdict(m metricDecl, a, b []float64) (string, float64) {
	_, medA, _, relA := spread(a)
	_, medB, _, relB := spread(b)
	worseBy := ratio(medB-medA, medA) // as a share of a's median, positive = worse
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			yBetter := y < x
			if m.Better == "higher" {
				yBetter = y > x
			}
			if x == y || !yBetter {
				allBetter = false
			}
			if x == y || yBetter {
				allWorse = false
			}
		}
	}
	switch {
	case max(relA, relB) > m.Bound && allBetter:
		return "better", worseBy
	case max(relA, relB) > m.Bound && !allWorse:
		return "unresolved", worseBy
	case worseBy > m.Bound:
		return "worse", worseBy
	case -worseBy > relA && -worseBy > 0:
		return "better", worseBy
	}
	return "same", worseBy
}

// compareSets prints one verdict per (workload, end-to-end metric) and
// fails unless every one is "same" or "better".
func compareSets(decl *declaration, pathA, pathB string, out io.Writer) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	if err := comparable(a, b); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	values := func(set []result, workload, metric string) []float64 {
		var xs []float64
		for _, r := range set {
			if r.Workload == workload {
				xs = append(xs, r.Metrics[metric].Value)
			}
		}
		return xs
	}
	bad := 0
	fmt.Fprintf(out, "%-13s %-15s %-5s %34s %34s %8s %6s  %s\n", "workload", "metric", "unit",
		"A median [q1, q3]", "B median [q1, q3]", "worse by", "bound", "verdict")
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			xa, xb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(xa) == 0 {
				continue
			}
			v, worseBy := verdict(m, xa, xb)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			q1a, ma, q3a, _ := spread(xa)
			q1b, mb, q3b, _ := spread(xb)
			fmt.Fprintf(out, "%-13s %-15s %-5s %10.5g [%9.5g, %9.5g] %10.5g [%9.5g, %9.5g] %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, m.Unit, ma, q1a, q3a, mb, q1b, q3b, 100*worseBy, 100*m.Bound, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse or unresolved", bad)
	}
	return nil
}
