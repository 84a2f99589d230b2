package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"rumor/internal/par"
)

// env is what one run hands its workload.
type env struct {
	seed   uint64
	size   sizing
	procs  int    // clients of the serve workloads, GOMAXPROCS of the engine ones
	runDir string // scratch under benchmark/out, removed when the run ends
	binDir string // where the serve workloads' binaries are built
	log    io.Writer
}

// window is the outcome of one measured phase.
type window struct {
	wall      time.Duration
	cpu       float64   // CPU seconds the program under test burned
	attempted int       // ops started
	failed    int       // ops that erred, timed out or returned wrong bytes
	latencies []float64 // ms per successful op group (see each workload)
	overhead  []float64 // µs per op the generator spent outside the program
	serve     serveCounters
}

func (w *window) ok() int { return w.attempted - w.failed }

func (w *window) opsPerSec() float64 { return ratio(float64(w.ok()), w.wall.Seconds()) }

// workload is one fixed, seeded set of inputs and the checks on its
// outputs. setUp may be called again after tearDown: set-up time is
// sampled several times a run because a single sample is too noisy to
// bound.
type workload interface {
	setUp(ctx context.Context) error
	tearDown()
	// measure runs whole units of the workload's work until d has
	// passed, recording spans when tr is non-nil.
	measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error)
	// verify runs the output checks that need a finished window.
	verify(ctx context.Context) error
	// digest identifies the generated inputs: equal seeds give equal
	// digests, and runs with equal digests did the same kind of work.
	digest() string
	// peakRSSMiB is the resident high-water mark of the program under
	// test.
	peakRSSMiB() (float64, error)
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "engine-sweep":
		return newEngineSweep(e), nil
	case "graph-build":
		return newGraphBuild(e), nil
	case "serve-cold":
		return newServeWorkload(e, false), nil
	case "serve-hot":
		return newServeWorkload(e, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// A run sets up at least minSetUps times and reports the median as
// setup_s; while set-up is cheap (setUpBudget not yet spent) it keeps
// sampling, up to maxSetUps, because short set-ups are the noisy ones.
const (
	minSetUps   = 3
	maxSetUps   = 9
	setUpBudget = 2 * time.Second
)

// resultLine is what a run prints as the last line of its standard
// output, for the driver.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is one run of one workload, as written to a set file.
type result struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Digest   string    `json:"digest"`
	Host     hostStamp `json:"host"`
	resultLine
}

// setGOMAXPROCS pins the scheduler and the engine's shard count together.
func setGOMAXPROCS(p int) {
	runtime.GOMAXPROCS(p)
	par.Refresh()
}

// selfCPU is the benchmark process's own CPU time: for the in-process
// workloads the program under test runs on it.
func selfCPU() float64 {
	s, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return 0
	}
	return s
}

func selfPeakRSSMiB() (float64, error) { return procPeakRSSMiB(os.Getpid()) }

// runUntraced is the end-to-end run: set up (several times, for a steady
// setup_s), measure with tracing off, verify.
func runUntraced(ctx context.Context, decl *declaration, w workload, d time.Duration) (*window, map[string]value, error) {
	var setups []float64
	for spent := time.Duration(0); len(setups) < minSetUps || (len(setups) < maxSetUps && spent < setUpBudget); {
		if len(setups) > 0 {
			w.tearDown()
		}
		t0 := time.Now()
		if err := w.setUp(ctx); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
	}
	win, err := w.measure(ctx, d, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := w.verify(ctx); err != nil {
		return win, nil, fmt.Errorf("verification: %w", err)
	}
	rss, err := w.peakRSSMiB()
	if err != nil {
		return win, nil, err
	}
	l := newLedger(decl.EndToEnd)
	l.set("setup_s", median(setups))
	l.set("ops_per_s", win.opsPerSec())
	l.set("latency_p50_ms", median(win.latencies))
	l.set("cpu_ms_per_op", ratio(win.cpu*1e3, float64(win.ok())))
	l.set("peak_rss_mib", rss)
	m, err := l.metrics()
	return win, m, err
}
