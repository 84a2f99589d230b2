// Command rumord serves the simulator as a long-running HTTP service:
// canonicalized simulation requests with singleflight deduplication,
// LRU-cached deterministic results, and NDJSON streaming of per-trial
// results (package serve).
//
// Usage:
//
//	rumord -addr :8356
//	curl -s localhost:8356/v1/run -d '{"graph":"star:1024","protocol":"visitx","trials":10,"seed":1}'
//	curl -s localhost:8356/v1/sweep -d '{"defaults":{"trials":10},"graphs":["star:256","star:512"],"protocols":["push","visitx"]}'
//	curl -s localhost:8356/v1/jobs/<id>/stream
//
// SIGINT/SIGTERM drain: intake stops (503), queued and running jobs
// finish and deliver their results, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux (served only on -pprof-addr)
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"rumor/internal/experiment"
	"rumor/internal/serve"
)

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "rumord:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until a shutdown signal (or stop, the
// tests' signal stand-in) triggers the drain. ready, when non-nil,
// receives the bound address once listening.
func run(args []string, ready func(net.Addr), stop <-chan struct{}) error {
	fs := flag.NewFlagSet("rumord", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8356", "listen address (use 127.0.0.1:0 with -port-file for an ephemeral port)")
		portFile  = fs.String("port-file", "", "write the bound address here once listening, so supervisors spawning on :0 can learn the port")
		workers   = fs.Int("workers", 0, "concurrent simulations (0 = half the processors: each simulation already spreads its trials over all of them)")
		queue     = fs.Int("queue", 0, "max queued jobs (0 = default 256)")
		cache     = fs.Int("cache", 0, "completed-result LRU entries (0 = default 512)")
		shards    = fs.Int("shards", 0, "job-table/cache shards (0 = default 16)")
		dataDir   = fs.String("data-dir", "", "spill evicted results to content-addressed files here; replayed byte-identically across restarts (empty = memory only)")
		spill     = fs.Int64("graph-spill", 256<<20, "spill graphs whose CSR is at least this many bytes to <data-dir>/graphs and serve them mmap-backed — deterministic families by canonical spec, random families by (spec, sampler seed, sampler version) (0 = never spill; needs -data-dir)")
		drain     = fs.Duration("drain", 30*time.Second, "max time to drain jobs on shutdown")
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled; never on the serving port)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir != "" {
		// Graph spill shares the result spill's data dir: graphs live in
		// a graphs/ subdirectory the result scan ignores, so one -data-dir
		// captures everything a restart replays.
		if err := experiment.ConfigureGraphStorage(filepath.Join(*dataDir, "graphs"), *spill); err != nil {
			return err
		}
	}
	s, err := serve.New(serve.Options{
		Workers: *workers, QueueSize: *queue, CacheSize: *cache,
		Shards: *shards, DataDir: *dataDir,
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		log.Printf("rumord: data dir %s: %d spilled results resident", *dataDir, s.SpillLen())
	}
	if *pprofAddr != "" {
		// Profiling binds its own listener so /debug/pprof/* is reachable
		// only where the operator pointed it, never on the serving port.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen %s: %w", *pprofAddr, err)
		}
		defer pln.Close()
		log.Printf("rumord: pprof on http://%s/debug/pprof/", pln.Addr())
		go http.Serve(pln, nil) // DefaultServeMux carries the pprof routes
	}
	// A listen failure — most commonly the port is already bound by
	// another process — is an orderly, logged, non-zero exit: supervisors
	// (cmd/soak) key restart decisions off it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	if *portFile != "" {
		// The bound address (with the real port when -addr ended in :0) is
		// published to a file rather than parsed out of logs.
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("write port file: %w", err)
		}
	}
	if ready != nil {
		ready(ln.Addr())
	}
	log.Printf("rumord: listening on %s", ln.Addr())
	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		return err
	case v := <-sig:
		log.Printf("rumord: %v: draining", v)
	case <-stop:
		log.Printf("rumord: stop requested: draining")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain order matters: the service stops intake first (new submissions
	// get 503 while HTTP still serves), jobs finish and hand results to
	// their waiting handlers, then the HTTP server waits for those
	// handlers to flush.
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain jobs: %w", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain http: %w", err)
	}
	log.Printf("rumord: drained")
	return nil
}
