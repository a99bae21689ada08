package main

import (
	"context"
	"fmt"
	"time"
)

// serviceSegments is how many fresh srschedd processes a service
// workload's run is split across. Each one is set up (launch, first
// /healthz 200, warm-up pass) and then serves an equal share of the
// run, ending on a block boundary of the stream. Set-up time,
// throughput and peak RSS are reported as the median over the
// segments, so one burst of machine noise, or one server whose
// collections fell badly, does not set a run's figure.
const serviceSegments = 3

// serviceSetUps is how many set-ups a run times: one per segment plus
// set-up-only servers, stopped once ready. A set-up takes 20–100 ms, so
// a median over only a few follows single slow process starts.
const serviceSetUps = 7

// serviceRun is the timed part of a service workload.
type serviceRun struct {
	samples    []sample  // every timed request, in completion order per segment
	throughput []float64 // requests per second, per segment
	rssMB      []float64 // srschedd peak RSS, per segment
	delta      series    // /metrics after minus before, summed over segments
}

// runService drives the stream through serviceSegments fresh servers
// under a closed loop of conns connections, each segment ending on a
// block boundary of the stream; check validates each reply.
func runService(b *bench, rep *report, warm []request, conns, block int, stream []request,
	check func(op, status int, body []byte) error, args ...string) (*serviceRun, error) {
	run := &serviceRun{delta: series{}}
	var setup []float64
	for i := serviceSegments; i < serviceSetUps; i++ {
		srv, s, err := setUpServer(b, warm, args...)
		if err != nil {
			return nil, err
		}
		if _, err := srv.stop(); err != nil {
			return nil, fmt.Errorf("srschedd exit: %w", err)
		}
		setup = append(setup, s)
	}
	next := 0
	for seg := 0; seg < serviceSegments; seg++ {
		srv, s, err := setUpServer(b, warm, args...)
		if err != nil {
			return nil, err
		}
		setup = append(setup, s)

		before, err := scrapeMetrics(srv.client, srv.base)
		if err != nil {
			srv.stop()
			return nil, err
		}
		samples, errs, wall := closedLoop(context.Background(), srv, conns, stream, next, block, b.duration/serviceSegments, check)
		after, err := scrapeMetrics(srv.client, srv.base)
		rss, stopErr := srv.stop()
		if err != nil {
			return nil, err
		}
		if stopErr != nil {
			return nil, fmt.Errorf("srschedd exit: %w", stopErr)
		}
		for k, v := range delta(before, after) {
			run.delta[k] += v
		}
		run.samples = append(run.samples, samples...)
		run.throughput = append(run.throughput, float64(len(samples))/wall.Seconds())
		run.rssMB = append(run.rssMB, rss)
		rep.attempted += len(samples)
		rep.note("server %d: %d requests, %.1f req/s, peak RSS %.1f MB", seg, len(samples), float64(len(samples))/wall.Seconds(), rss)
		for _, e := range errs {
			rep.fail("%v", e)
		}
		next += len(samples)
	}
	rep.set("setup_s", median(setup), "s")
	return run, nil
}

// setUpServer launches srschedd, waits for its first /healthz 200 and
// runs the warm-up pass; it returns the server and the seconds taken.
func setUpServer(b *bench, warm []request, args ...string) (*server, float64, error) {
	t0 := time.Now()
	srv, err := startServer(b, args...)
	if err != nil {
		return nil, 0, err
	}
	for _, r := range warm {
		status, body, err := srv.post(r.path, r.body)
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		if err != nil {
			srv.stop()
			return nil, 0, fmt.Errorf("warm-up %s: %w", r.path, err)
		}
	}
	return srv, time.Since(t0).Seconds(), nil
}

// setLatency reports the closed-loop numbers every service workload
// shares and returns the per-request latencies in milliseconds.
func (run *serviceRun) setLatency(rep *report) []float64 {
	lat := make([]float64, len(run.samples))
	for i, s := range run.samples {
		lat[i] = ms(s.latency)
	}
	rep.set("latency_ms.p50", median(lat), "ms")
	rep.set("throughput_ops_s", median(run.throughput), "1/s")
	rep.set("peak_rss_mb", median(run.rssMB), "MB")
	rep.set("failed_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio")
	return lat
}
