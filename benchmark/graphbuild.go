package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"rumor/internal/experiment"
	"rumor/internal/graph"
)

// sweepFamilies are the families whose every realization is connected:
// only there does a push-pull sweep terminate by informing everyone.
var sweepFamilies = map[string]bool{"star": true, "hypercube": true, "randreg": true, "barabasi": true}

// storeThreshold makes the store spill every graph, whatever its size.
const storeThreshold = 1

// graphCycle is one family's trip through one pass: built and spilled by
// a store on an empty directory, reopened by a fresh store on the same
// directory, then swept heap-backed and mmap-backed.
type graphCycle struct {
	family              string
	file                string // the spilled CSR file
	edges, csrBytes     int64
	build               time.Duration // inside the build callback
	write, read         time.Duration // GetOrBuild on the empty / the filled store
	sweepHeap, sweepMap time.Duration // 0 where the family is not swept
	failed              bool
	// Filled only for the ledger's probe pass.
	encode, open time.Duration
	heapPeak     int64 // sampled heap growth during the build
}

// graphPass takes every table graph through one cycle in dir, which must
// be empty. With probe it also times the codec's two halves on their own
// and samples the heap during each build.
func graphPass(ctx context.Context, specs []string, dir string, samplerSeed, sweepSeed uint64, tr *tracer, probe bool) ([]graphCycle, error) {
	cycles := make([]graphCycle, 0, len(specs))
	for i, s := range specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := graph.ParseSpec(s)
		if err != nil {
			return nil, err
		}
		key := p.Canonical()
		if p.Random() {
			key = graph.SeededKey(key, samplerSeed)
		}
		c := graphCycle{family: p.Family}

		cold, err := graph.NewStore(dir, storeThreshold)
		if err != nil {
			return nil, err
		}
		c.file = cold.Path(key)
		var heap *graph.Graph
		t0 := time.Now()
		outer := tr.begin("Store.GetOrBuild cold", "graph", -1, i)
		g, err := cold.GetOrBuild(key, func() (*graph.Graph, error) {
			var stop func() int64
			if probe {
				stop = sampleHeapGrowth()
			}
			b0 := time.Now()
			inner := tr.begin("ParsedSpec.BuildSeeded "+p.Family, "graph", outer, i)
			var err error
			heap, err = p.BuildSeeded(samplerSeed)
			tr.end(inner)
			c.build = time.Since(b0)
			if probe {
				c.heapPeak = stop()
			}
			return heap, err
		})
		tr.end(outer)
		c.write = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		if heap == nil || !g.MmapBacked() {
			return nil, fmt.Errorf("%s: the empty store did not build, spill and reopen the graph", s)
		}
		c.edges, c.csrBytes = int64(g.M()), g.CSRBytes()

		warm, err := graph.NewStore(dir, storeThreshold)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		sp := tr.begin("Store.GetOrBuild warm", "graph", -1, i)
		g2, err := warm.GetOrBuild(key, func() (*graph.Graph, error) {
			return nil, errors.New("the filled store rebuilt instead of reopening")
		})
		tr.end(sp)
		c.read = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}

		if sweepFamilies[p.Family] {
			spec := experiment.DefaultRunSpec()
			spec.Graph, spec.Protocol, spec.Trials, spec.Seed = s, experiment.ProtoPPull, 4, sweepSeed
			norm, err := spec.Normalize()
			if err != nil {
				return nil, err
			}
			src := experiment.DefaultSource(heap)
			t0 = time.Now()
			sp = tr.begin("RunSpec.RunOn heap", "core", -1, i)
			onHeap, err := norm.RunOn(heap, src, nil)
			tr.end(sp)
			c.sweepHeap = time.Since(t0)
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			sp = tr.begin("RunSpec.RunOn mmap", "core", -1, i)
			onMap, err := norm.RunOn(g2, src, nil)
			tr.end(sp)
			c.sweepMap = time.Since(t0)
			if err != nil {
				return nil, err
			}
			a, b := []pointRun{{results: onHeap}}, []pointRun{{results: onMap}}
			if resultDigest(a) != resultDigest(b) {
				c.failed = true
			}
			for _, r := range onHeap {
				if !r.Completed {
					c.failed = true
				}
			}
		}

		if probe {
			side := c.file + ".probe"
			t0 = time.Now()
			sp = tr.begin("WriteCSRFile", "graph", -1, i)
			err := graph.WriteCSRFile(heap, side)
			tr.end(sp)
			c.encode = time.Since(t0)
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			sp = tr.begin("OpenCSRFile", "graph", -1, i)
			_, err = graph.OpenCSRFile(side)
			tr.end(sp)
			c.open = time.Since(t0)
			if err != nil {
				return nil, err
			}
			os.Remove(side)
		}
		cycles = append(cycles, c)
	}
	return cycles, nil
}

// sampleHeapGrowth polls the live-heap size every millisecond until the
// returned stop is called, which reports the largest growth it saw. It
// collects first, so garbage of earlier builds freed meanwhile does not
// hide the growth.
func sampleHeapGrowth() (stop func() int64) {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() int64 {
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	base, peak := read(), int64(0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				peak = max(peak, read()-base)
			}
		}
	}()
	return func() int64 {
		close(done)
		wg.Wait()
		return max(peak, read()-base)
	}
}

type graphBuild struct {
	e        *env
	specs    []string
	setUpDir string // the set-up pass's store, kept as the reference for pass 0
	pass0Dir string
	passDirs int // directories handed out, so that no two passes share one
}

func newGraphBuild(e *env) *graphBuild {
	return &graphBuild{e: e, specs: e.size.graphs}
}

func (w *graphBuild) samplerSeed(pass int) uint64 { return mix(w.e.seed^0x6772617068, uint64(pass)) }
func (w *graphBuild) sweepSeed() uint64           { return specSeed(w.e.seed^0x7377656570, 0) }

func (w *graphBuild) passDir(name string) (string, error) {
	dir := filepath.Join(w.e.runDir, "graphs-"+name)
	return dir, os.MkdirAll(dir, 0o755)
}

// setUp is one unmeasured pass with the seeds of measured pass 0: it
// faults in the code and the page cache, and its files are the reference
// pass 0's must equal byte for byte.
func (w *graphBuild) setUp(ctx context.Context) error {
	setGOMAXPROCS(w.e.procs)
	dir, err := w.passDir("setup")
	if err != nil {
		return err
	}
	w.setUpDir = dir
	_, err = graphPass(ctx, w.specs, dir, w.samplerSeed(0), w.sweepSeed(), nil, false)
	return err
}

func (w *graphBuild) tearDown() {
	os.RemoveAll(w.setUpDir)
	os.RemoveAll(w.pass0Dir)
}

func (w *graphBuild) digest() string {
	h := sha256.New()
	for _, s := range w.specs {
		fmt.Fprintln(h, s)
	}
	for r := range 64 {
		fmt.Fprintln(h, w.samplerSeed(r))
	}
	fmt.Fprintln(h, w.sweepSeed())
	return hex.EncodeToString(h.Sum(nil))
}

// measure runs whole passes until d has passed, each on an empty
// directory with its own sampler seed. The op is one graph's cycle; the
// latency sample is the write path of one pass — building and spilling
// the whole table, the part a first user waits for.
func (w *graphBuild) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	win := &window{}
	cpu0 := selfCPU()
	start := time.Now()
	for pass := 0; time.Since(start) < d; pass++ {
		p0 := time.Now()
		w.passDirs++
		dir, err := w.passDir(fmt.Sprint("pass-", w.passDirs))
		if err != nil {
			return nil, err
		}
		cycles, err := graphPass(ctx, w.specs, dir, w.samplerSeed(pass), w.sweepSeed(), tr, false)
		if err != nil {
			return nil, err
		}
		if pass == 0 && w.pass0Dir == "" {
			w.pass0Dir = dir
		} else {
			os.RemoveAll(dir)
		}
		inCycles, writes := time.Duration(0), time.Duration(0)
		for _, c := range cycles {
			win.attempted++
			if c.failed {
				win.failed++
			}
			writes += c.write
			inCycles += c.write + c.read + c.sweepHeap + c.sweepMap
		}
		win.latencies = append(win.latencies, float64(writes)/1e6)
		win.overhead = append(win.overhead, float64(time.Since(p0)-inCycles)/1e3/float64(len(cycles)))
	}
	win.wall = time.Since(start)
	win.cpu = selfCPU() - cpu0
	return win, nil
}

func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// verify checks every file the set-up pass spilled: it decodes to a valid
// graph whose degrees sum to 2m, and measured pass 0 — same specs, same
// sampler seeds, another directory — produced the same bytes.
func (w *graphBuild) verify(ctx context.Context) error {
	files, err := filepath.Glob(filepath.Join(w.setUpDir, "*.csr"))
	if err != nil {
		return err
	}
	if len(files) != len(w.specs) {
		return fmt.Errorf("set-up spilled %d files for %d specs", len(files), len(w.specs))
	}
	for _, f := range files {
		g, err := graph.OpenCSRFile(f)
		if err != nil {
			return err
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("%s: %w", g.Name(), err)
		}
		degrees := 0
		for v := range g.N() {
			degrees += g.Degree(graph.Vertex(v))
		}
		if degrees != 2*g.M() {
			return fmt.Errorf("%s: degrees sum to %d, 2m is %d", g.Name(), degrees, 2*g.M())
		}
		a, err := fileSHA(f)
		if err != nil {
			return err
		}
		b, err := fileSHA(filepath.Join(w.pass0Dir, filepath.Base(f)))
		if err != nil {
			return err
		}
		if a != b {
			return fmt.Errorf("%s: same spec and seed, different CSR bytes (%s vs %s)", g.Name(), a[:12], b[:12])
		}
	}
	return nil
}

func (w *graphBuild) peakRSSMiB() (float64, error) { return selfPeakRSSMiB() }
