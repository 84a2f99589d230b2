package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// The serve workloads' topology: one rumorgw in front of two rumord, each
// with one simulation worker (so two backends fill the two cores the
// generator leaves) and a 256-entry result cache over a disk spill tier.
const (
	stackBackends  = 2
	backendWorkers = 1
	backendCache   = 256
)

// buildBinaries compiles the two daemons into dir. The go command's own
// cache makes a repeat build a no-op, which is why build time is reported
// beside set-up time, not inside it.
func buildBinaries(ctx context.Context, dir string) (time.Duration, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for _, name := range []string{"rumord", "rumorgw"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("go build ./cmd/%s: %w\n%s", name, err, out)
		}
	}
	return time.Since(t0), nil
}

// child is one daemon process. Cancelling its context sends SIGTERM (the
// daemons drain and exit) and, five seconds later, SIGKILL.
type child struct {
	cmd    *exec.Cmd
	addr   string // host:port it bound
	cancel context.CancelFunc
	logf   *os.File
}

// startChild starts bin on an ephemeral port, learns the port from
// -port-file, and waits until readyPath answers 200.
func startChild(ctx context.Context, dir, name, bin, readyPath string, args ...string) (*child, error) {
	portFile := filepath.Join(dir, name+".addr")
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cctx, cancel := context.WithCancel(ctx)
	cmd := exec.CommandContext(cctx, bin, append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	setParentDeathSignal(cmd)
	if err := cmd.Start(); err != nil {
		cancel()
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{cmd: cmd, cancel: cancel, logf: logf}
	if err := c.awaitReady(cctx, portFile, readyPath); err != nil {
		c.stop()
		tail, _ := os.ReadFile(logf.Name())
		return nil, fmt.Errorf("%s: %w\n%s", name, err, tail)
	}
	return c, nil
}

func (c *child) awaitReady(ctx context.Context, portFile, readyPath string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.addr == "" {
			if b, err := os.ReadFile(portFile); err == nil && strings.HasSuffix(string(b), "\n") {
				c.addr = strings.TrimSpace(string(b))
			}
		}
		if c.addr != "" {
			resp, err := plainClient.Get("http://" + c.addr + readyPath)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("not ready after 20 s")
}

// stop terminates the process and waits until it has ended.
func (c *child) stop() {
	c.cancel()
	c.cmd.Wait()
	c.logf.Close()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// procStack is the serve workloads' program under test: real processes,
// driven only through their documented flags and HTTP endpoints.
type procStack struct {
	dir      string
	gateway  *child
	backends []*child
}

func startProcStack(ctx context.Context, binDir, dir string) (*procStack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &procStack{dir: dir}
	var addrs []string
	for i := range stackBackends {
		name := fmt.Sprintf("rumord-%d", i)
		b, err := startChild(ctx, dir, name, filepath.Join(binDir, "rumord"), "/v1/readyz",
			"-workers", fmt.Sprint(backendWorkers), "-cache", fmt.Sprint(backendCache),
			"-data-dir", filepath.Join(dir, name+"-data"))
		if err != nil {
			s.stop()
			return nil, err
		}
		s.backends = append(s.backends, b)
		addrs = append(addrs, b.addr)
	}
	gw, err := startChild(ctx, dir, "rumorgw", filepath.Join(binDir, "rumorgw"), "/v1/healthz",
		"-backends", strings.Join(addrs, ","))
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gateway = gw
	return s, nil
}

// stop ends every process, waits for each, and removes the stack's files.
func (s *procStack) stop() {
	if s.gateway != nil {
		s.gateway.stop()
	}
	for _, b := range s.backends {
		b.stop()
	}
	os.RemoveAll(s.dir)
}

func (s *procStack) gatewayURL() string { return "http://" + s.gateway.addr }

func (s *procStack) backendURLs() []string {
	urls := make([]string, len(s.backends))
	for i, b := range s.backends {
		urls[i] = "http://" + b.addr
	}
	return urls
}

// cpuSeconds is the CPU the gateway and the backends have burned so far.
func (s *procStack) cpuSeconds() (gateway, backends float64, err error) {
	if gateway, err = procCPUSeconds(s.gateway.pid()); err != nil {
		return 0, 0, err
	}
	for _, b := range s.backends {
		c, err := procCPUSeconds(b.pid())
		if err != nil {
			return 0, 0, err
		}
		backends += c
	}
	return gateway, backends, nil
}

// peakRSSMiB sums the resident high-water marks of the three processes.
func (s *procStack) peakRSSMiB() (float64, error) {
	total := 0.0
	for _, c := range append([]*child{s.gateway}, s.backends...) {
		r, err := procPeakRSSMiB(c.pid())
		if err != nil {
			return 0, err
		}
		total += r
	}
	return total, nil
}
