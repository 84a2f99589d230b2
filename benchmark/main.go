// Command benchmark is the repository's one benchmark: four workloads
// over the whole stack (engine, graph substrate, rumord behind rumorgw),
// every output verified, end-to-end metrics with tracing off and the
// per-layer ledger from a traced run. BENCHMARK.json at the repository
// root declares the workloads, metrics, units and bounds; README.md in
// this directory says how to run and read it.
//
//	go run ./benchmark                                  every workload once
//	go run ./benchmark --workload serve-hot --seed 7    one workload
//	go run ./benchmark --workload serve-hot --trace 1   the per-layer ledger
//	go run ./benchmark -runs 10 -out A.json             a set of runs
//	go run ./benchmark -compare A.json B.json           verdict per metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind: built binaries, per-run
// scratch (removed at exit), trace files and result sets.
const outDir = "benchmark/out"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run (default: every declared workload)")
		seed         = fs.Uint64("seed", 1, "seed every generated input derives from")
		seconds      = fs.Float64("seconds", 0, "length of the measured phase (default: run_seconds of "+declFile+")")
		trace        = fs.Int("trace", 0, "1 = traced run: per-layer ledger, span file and latency budget instead of the end-to-end metrics")
		smoke        = fs.Bool("smoke", false, "tiny sizing of every workload, for the test; its numbers mean nothing")
		runs         = fs.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
		out          = fs.String("out", "", "write the set of results here as JSON (default "+outDir+"/results.json)")
		compare      = fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	decl, err := loadDeclaration(declFile)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result sets")
		}
		return compareSets(decl, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace is 0 or 1")
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	names := []string{*workloadName}
	if *workloadName == "" {
		names = names[:0]
		for _, w := range decl.Workloads {
			names = append(names, w.Name)
		}
	}
	if *out == "" {
		*out = filepath.Join(outDir, "results.json")
	}

	// One run of one workload happens in this process: that is what the
	// driver invokes and reads the last line of.
	if *workloadName != "" && *runs == 1 {
		res, err := runOne(ctx, decl, runConfig{
			workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke,
		}, stdout, stderr)
		if res != nil {
			if werr := writeJSONFile(*out, []result{*res}); werr != nil {
				return werr
			}
			line, merr := json.Marshal(res.resultLine)
			if merr != nil {
				return merr
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
		return err
	}
	// A set of runs: each in a process of its own, so that peak memory,
	// caches and the runtime start fresh every time, as they do for the
	// driver.
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var set []result
	for _, name := range names {
		for r := range *runs {
			part := filepath.Join(outDir, fmt.Sprintf("part-%d.json", os.Getpid()))
			cmd := exec.CommandContext(ctx, exe,
				"--workload", name, "--seed", fmt.Sprint(*seed+uint64(r)), "--seconds", fmt.Sprint(*seconds),
				"--trace", fmt.Sprint(*trace), fmt.Sprintf("-smoke=%t", *smoke), "-out", part)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, *seed+uint64(r), err)
			}
			one, err := readSet(part)
			os.Remove(part)
			if err != nil {
				return err
			}
			set = append(set, one...)
		}
	}
	return writeJSONFile(*out, set)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
}

// runOne runs one workload once and prints its metrics, one
// "workload metric unit value" line each.
func runOne(ctx context.Context, decl *declaration, cfg runConfig, stdout, stderr io.Writer) (*result, error) {
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	e := &env{
		seed: cfg.seed, size: fullSizing(), procs: parallelism(),
		runDir: runDir, binDir: filepath.Join(outDir, "bin"), log: stderr,
	}
	if cfg.smoke {
		e.size = smokeSizing()
	}
	w, err := newWorkload(cfg.workload, e)
	if err != nil {
		return nil, err
	}
	defer w.tearDown()

	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Digest: w.digest(), Host: readHostStamp(),
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	var win *window
	if cfg.trace {
		win, res.Metrics, err = runTraced(ctx, decl, e, cfg.workload, w, d, stdout)
	} else {
		win, res.Metrics, err = runUntraced(ctx, decl, w, d)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = win.attempted, win.failed
	res.Correct = win.failed == 0

	fmt.Fprintf(stdout, "%s seed %d inputs sha256 %s\n", cfg.workload, cfg.seed, res.Digest)
	fmt.Fprintf(stdout, "%s measured %.2f s: attempted %d, succeeded %d, failed %d; %d latency samples\n",
		cfg.workload, win.wall.Seconds(), win.attempted, win.ok(), win.failed, len(win.latencies))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%s %s %s %.6g\n", cfg.workload, name, m.Unit, m.Value)
	}
	if win.failed > 0 {
		return res, fmt.Errorf("%d of %d ops failed", win.failed, win.attempted)
	}
	return res, nil
}
