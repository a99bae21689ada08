package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cliRun is one finished tool invocation.
type cliRun struct {
	stdout []byte
	wall   time.Duration
	rssMB  float64 // peak resident set of the process
}

// rssPoll is how often a running tool's peak RSS is read.
const rssPoll = 20 * time.Millisecond

// peakRSS reads a live process's peak resident set (VmHWM) in MB.
// getrusage's ru_maxrss cannot be used: a child started by fork and
// exec inherits the parent's high-water mark at exec, so it reports at
// least the benchmark's own RSS.
func peakRSS(pid int) (float64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// runCLI runs a tool to completion and reports its wall time and peak
// RSS, read every rssPoll while it runs (VmHWM only grows, so the last
// read misses at most the final poll interval).
func runCLI(bin string, args ...string) (cliRun, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return cliRun{}, err
	}
	done := make(chan struct{})
	polled := make(chan float64)
	go func() {
		peak := 0.0
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			if v, ok := peakRSS(cmd.Process.Pid); ok && v > peak {
				peak = v
			}
			select {
			case <-done:
				polled <- peak
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	close(done)
	r := cliRun{stdout: stdout.Bytes(), wall: time.Since(start), rssMB: <-polled}
	if err != nil {
		return r, fmt.Errorf("%s %v: %w: %s", filepath.Base(bin), args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return r, nil
}

// server is one srschedd process.
type server struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	client *http.Client
}

// startServer launches srschedd on a free loopback port and returns
// once /healthz answers 200.
func startServer(b *bench, args ...string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(b.work, "srschedd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(b.tool("srschedd"), append([]string{"-listen", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
		Timeout:   60 * time.Second,
	}}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("srschedd did not become healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop reads the server's peak RSS over its life so far, then sends
// SIGTERM and waits for the drain.
func (s *server) stop() (rssMB float64, err error) {
	rssMB, _ = peakRSS(s.cmd.Process.Pid)
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		err = <-done
	}
	s.log.Close()
	return rssMB, err
}

// post sends one JSON request and returns the status and body.
func (s *server) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// sample is one timed request of a closed loop.
type sample struct {
	op      int // index into the request stream
	latency time.Duration
	bytes   int
}

// closedLoop drives conns clients, each sending its next request only
// after the previous reply, through the stream in order from op first
// (a multiple of block) until the deadline, and then on to the end of
// the current block of block ops: the stream is laid out in blocks that
// each ask for every template once, so stopping on a block boundary
// keeps the measured mix exact. check validates each reply; it runs on
// the client goroutine (its cost is part of the client's think time,
// never of the latency).
func closedLoop(ctx context.Context, s *server, conns int, stream []request, first, block int, d time.Duration,
	check func(op int, status int, body []byte) error) (samples []sample, errs []error, wall time.Duration) {
	var next, stopAt atomic.Int64
	next.Store(int64(first))
	stopAt.Store(math.MaxInt64)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				op := next.Add(1) - 1
				if time.Now().After(deadline) {
					// Finish the block this op belongs to, and no more.
					end := (op + int64(block) - 1) / int64(block) * int64(block)
					for cur := stopAt.Load(); end < cur && !stopAt.CompareAndSwap(cur, end); cur = stopAt.Load() {
					}
				}
				if op >= stopAt.Load() {
					return
				}
				req := stream[int(op)%len(stream)]
				t0 := time.Now()
				status, body, err := s.post(req.path, req.body)
				lat := time.Since(t0)
				if err == nil {
					err = check(int(op), status, body)
				}
				mu.Lock()
				samples = append(samples, sample{op: int(op), latency: lat, bytes: len(body)})
				if err != nil {
					errs = append(errs, fmt.Errorf("op %d %s: %w", op, req.path, err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, errs, time.Since(start)
}

// request is one HTTP request of a generated stream.
type request struct {
	path string
	body []byte
	tmpl int // template the request was drawn from
}
