package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// declFile is the benchmark's declaration at the repository root. It is
// the single registry of workload and metric names, units and bounds: the
// program emits exactly what it declares and refuses to emit anything
// else, so the file and the code cannot drift apart.
const declFile = "BENCHMARK.json"

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declaration struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read declaration: %w (run from the repository root)", err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}

// value is one reported metric, in the shape the result line carries.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger collects the metrics of one run against one declared list.
type ledger struct {
	decl   []metricDecl
	values map[string]float64
}

func newLedger(decl []metricDecl) *ledger {
	return &ledger{decl: decl, values: make(map[string]float64, len(decl))}
}

// set records a metric. An undeclared or repeated name is a bug in the
// benchmark, not a property of the program under test.
func (l *ledger) set(name string, v float64) {
	for _, m := range l.decl {
		if m.Name == name {
			if _, dup := l.values[name]; dup {
				panic("benchmark: metric " + name + " set twice")
			}
			l.values[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in " + declFile)
}

// metrics returns every declared metric with its unit, or an error naming
// the ones nothing measured.
func (l *ledger) metrics() (map[string]value, error) {
	out := make(map[string]value, len(l.decl))
	var missing []string
	for _, m := range l.decl {
		v, ok := l.values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("declared but not measured: %v", missing)
	}
	return out, nil
}
