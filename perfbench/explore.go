package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"schedroute/internal/alloc"
	"schedroute/internal/parallel"
	"schedroute/internal/schedule"
	"schedroute/internal/trace"
	"schedroute/pkg/schedroute"
)

// explore: /v1/explore under a closed loop of 1 connection, leaving the
// second core to the request's own fan-out. Each template is one
// (application, machine, bandwidth, mode) slot; the seed draws the grid
// templates' upper period and the stream order.
const (
	exploreConns     = 1
	exploreStreamLen = 4096
	exploreWorkers   = 2  // srschedd -workers: one request plus its fan-out
	tauCUniform      = 50 // τc of the uniform 50 µs task timing every slot uses
)

// exploreSlot fixes the problem and mode of one template.
type exploreSlot struct {
	app, machine string
	bw           float64
	pareto       bool
}

// exploreSlots give every serve-small application one Pareto and one
// grid template, on machines and bandwidths that rotate so each machine
// serves three templates and each bandwidth six. The set is fixed, so
// each seed explores the same mix of problem sizes.
func exploreSlots() []exploreSlot {
	var out []exploreSlot
	for a, app := range serveApps {
		m := len(serveMachines)
		out = append(out,
			exploreSlot{app: app, machine: serveMachines[a%m], bw: serveBWs[a%2], pareto: true},
			exploreSlot{app: app, machine: serveMachines[(a+2)%m], bw: serveBWs[(a+1)%2]})
	}
	return out
}

// exploreTemplate is one distinct exploration and its expected result.
type exploreTemplate struct {
	req  schedroute.ExploreRequest
	body []byte
	want []byte // canonical JSON of the expected ExploreResult
	res  *schedroute.ExploreResult
}

// genExplore draws the seed's exploration requests and stream.
func genExplore(seed int64) ([]exploreTemplate, []request, error) {
	rng := rand.New(rand.NewSource(seed))
	slots := exploreSlots()
	tmpls := make([]exploreTemplate, len(slots))
	for i, s := range slots {
		req := schedroute.ExploreRequest{
			Problem: schedroute.Problem{TFG: s.app, Topology: s.machine, Bandwidth: s.bw},
			Options: schedroute.Options{Seed: 1},
		}
		// The AssignPaths and annealer seeds are fixed: they decide which
		// periods are feasible and so how many solves a search runs, and
		// drawn per seed they moved the median latency between seeds by
		// up to 40% (178 to 263 ms over ten seeds).
		a1, a2 := int64(2*i+1), int64(2*i+2)
		if s.pareto {
			req.Objectives = []string{"tau_in", "latency", "links", "buffers"}
			req.Axes.Placement = &schedroute.PlacementAxis{Allocators: []string{"greedy"}, AnnealSeeds: []int64{a1, a2}}
		} else {
			req.Axes.TauIn = &schedroute.TauInAxis{Points: 12, Max: tauCUniform * (4 + rng.Float64())}
			req.Axes.Placement = &schedroute.PlacementAxis{Allocators: []string{"greedy"}, AnnealSeeds: []int64{a1}}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		tmpls[i] = exploreTemplate{req: req, body: body}
	}
	return tmpls, permutedStream(rng, exploreStreamLen, len(tmpls), func(j int) request {
		return request{path: "/v1/explore", body: tmpls[j].body, tmpl: j}
	}), nil
}

// exploreInProcess answers one exploration through the public
// functions srschedd uses: schedule.Explore for Pareto mode, and for
// grid mode the per-point best-placement search over one Solver per
// candidate placement (feasible beats infeasible, then lower peak).
func exploreInProcess(ctx context.Context, req schedroute.ExploreRequest, procs int) (*schedroute.ExploreResult, error) {
	b, err := schedroute.NewProblem(req.Problem)
	if err != nil {
		return nil, err
	}
	opts, err := req.Options.ToSchedule()
	if err != nil {
		return nil, err
	}
	opts.Procs = procs
	placements := []*alloc.Assignment{b.Assignment}
	sources := []string{"problem"}
	ax := req.Axes.Placement
	for _, name := range ax.Allocators {
		as, err := schedroute.ParseAllocator(name, b.Graph, b.Topology, b.Spec.AllocSeed)
		if err != nil {
			return nil, err
		}
		placements = append(placements, as)
		sources = append(sources, "allocator:"+name)
	}
	for _, s := range ax.AnnealSeeds {
		sources = append(sources, fmt.Sprintf("anneal:%d", s))
	}
	tauC := b.Timing.TauC()
	out := &schedroute.ExploreResult{SchemaVersion: schedroute.SchemaVersion, Mode: req.Mode(), TauC: tauC, TauM: b.Timing.TauM()}
	tax := req.TauInAxisOrDefault()

	if req.Mode() == schedroute.ExploreModePareto {
		objectives, err := schedule.ParseObjectives(req.Objectives)
		if err != nil {
			return nil, err
		}
		front, err := schedule.Explore(ctx, b.ScheduleProblem(), opts, schedule.ExploreSpec{
			MinTauIn: tax.Min, MaxTauIn: tax.Max, GridPoints: tax.Points, Tolerance: req.Tolerance,
			Placements: placements, AnnealSeeds: ax.AnnealSeeds, AnnealSteps: ax.AnnealSteps, Objectives: objectives,
		})
		if err != nil {
			return nil, err
		}
		out.MinTauIn, out.Evaluated = front.MinTauIn, front.Evaluated
		for _, ob := range front.Objectives {
			out.Objectives = append(out.Objectives, string(ob))
		}
		for i, po := range front.Placements {
			out.Placements = append(out.Placements, schedroute.PlacementOutcome{Source: sources[i], Feasible: po.Feasible, MinTauIn: po.MinTauIn})
		}
		for _, pt := range front.Points {
			out.Front = append(out.Front, schedroute.ParetoPoint{Placement: pt.Placement, TauIn: pt.TauIn, Load: tauC / pt.TauIn,
				Window: pt.Window, Latency: pt.Latency, Links: pt.Links, Buffers: pt.Buffers, Peak: pt.Peak})
		}
		return out, nil
	}

	annealed, err := parallel.Map(ctx, len(ax.AnnealSeeds), procs, func(i int) (*alloc.Assignment, error) {
		return alloc.Anneal(b.Graph, b.Topology, alloc.AnnealOptions{Seed: ax.AnnealSeeds[i], Steps: ax.AnnealSteps})
	})
	if err != nil {
		return nil, err
	}
	placements = append(placements, annealed...)
	solvers := make([]*schedule.Solver, len(placements))
	for i, as := range placements {
		p := b.ScheduleProblem()
		p.Assignment = as
		solvers[i] = schedule.NewSolver(p)
	}
	n, lo, hi := tax.Points, tax.Min, tax.Max
	if n == 0 {
		n = 12
	}
	if lo == 0 {
		lo = tauC
	}
	if hi == 0 {
		hi = 5 * tauC
	}
	out.Points = make([]schedroute.SweepPoint, n)
	out.Winners = make([]int, n)
	err = parallel.ForEach(ctx, n, procs, func(i int) error {
		tauIn := lo
		if n > 1 {
			tauIn = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		var best *schedule.Result
		for c, s := range solvers {
			res, err := s.Solve(ctx, tauIn, opts)
			if err != nil {
				return err
			}
			if best == nil || schedule.Better(res, best) {
				best, out.Winners[i] = res, c
			}
		}
		pt := schedroute.SweepPoint{TauIn: tauIn, Load: tauC / tauIn, PeakLSD: best.PeakLSD, Peak: best.Peak}
		if best.Feasible {
			pt.Feasible, pt.Latency = true, best.Latency
		} else {
			pt.FailStage = best.FailStage.String()
		}
		out.Points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, src := range sources {
		po := schedroute.PlacementOutcome{Source: src}
		for j, w := range out.Winners {
			if w == i && out.Points[j].Feasible {
				po.Feasible = true
				break
			}
		}
		out.Placements = append(out.Placements, po)
	}
	return out, nil
}

// expectExplore fills every template's expected result in process.
func expectExplore(tmpls []exploreTemplate) error {
	for i := range tmpls {
		res, err := exploreInProcess(context.Background(), tmpls[i].req, exploreWorkers)
		if err != nil {
			return fmt.Errorf("in-process explore %d: %w", i, err)
		}
		tmpls[i].res = res
		if tmpls[i].want, err = json.Marshal(res); err != nil {
			return err
		}
	}
	return nil
}

func (t *exploreTemplate) check(status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var got schedroute.ExploreResult
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	got.Trace = nil
	canon, err := json.Marshal(&got)
	if err != nil {
		return err
	}
	if !bytes.Equal(canon, t.want) {
		return fmt.Errorf("%s result differs from the in-process exploration:\n got %.300s\nwant %.300s", t.req.Mode(), canon, t.want)
	}
	return nil
}

// exploreRun is the timed part shared by the plain and traced runs.
type exploreRun struct {
	*serviceRun
	tmpls  []exploreTemplate
	stream []request
}

func measureExplore(b *bench, rep *report) (*exploreRun, error) {
	tmpls, stream, err := genExplore(b.seed)
	if err != nil {
		return nil, err
	}
	if err := expectExplore(tmpls); err != nil {
		return nil, err
	}
	// Warm-up: one /v1/schedule per template structure, so the timed
	// explorations start from a warm solver cache.
	var warm []request
	for i, t := range tmpls {
		body, err := json.Marshal(schedroute.ScheduleRequest{Problem: t.req.Problem, Options: t.req.Options})
		if err != nil {
			return nil, err
		}
		warm = append(warm, request{path: "/v1/schedule", body: body, tmpl: i})
	}
	run, err := runService(b, rep, warm, exploreConns, len(tmpls), stream,
		func(op, status int, body []byte) error { return tmpls[stream[op%len(stream)].tmpl].check(status, body) },
		"-workers", fmt.Sprint(exploreWorkers))
	if err != nil {
		return nil, err
	}
	return &exploreRun{serviceRun: run, tmpls: tmpls, stream: stream}, nil
}

func runExplore(b *bench, rep *report) error {
	run, err := measureExplore(b, rep)
	if err != nil {
		return err
	}
	lat := run.setLatency(rep)
	var minTau []float64
	for _, s := range run.samples {
		if res := run.tmpls[run.stream[s.op%len(run.stream)].tmpl].res; res.Mode == schedroute.ExploreModePareto && res.MinTauIn > 0 {
			minTau = append(minTau, res.MinTauIn)
		}
	}
	if p90, ok := tailPercentile(lat, 0.90); ok {
		rep.set("latency_ms.p90", p90, "ms")
	} else {
		rep.note("latency_ms.p90 not reported: fewer than %d samples beyond it (n=%d)", minBeyond, len(lat))
	}
	rep.set("min_tau_in_us", mean(minTau), "us")
	perTmpl := make([][]float64, len(run.tmpls))
	for i, s := range run.samples {
		j := run.stream[s.op%len(run.stream)].tmpl
		perTmpl[j] = append(perTmpl[j], lat[i])
	}
	for j, l := range perTmpl {
		t := run.tmpls[j].req
		rep.note("template %d %s %s %g B/µs %s: %d requests, median %.0f ms", j, t.Problem.TFG, t.Problem.Topology, t.Problem.Bandwidth, t.Mode(), len(l), median(l))
	}
	rep.note("%d explorations over %d connection on %d servers", len(lat), exploreConns, serviceSegments)
	return nil
}

// traceExplore repeats the timed run (for the /metrics delta), then
// replays every template in process: Explore or the grid search under a
// span each, the annealer on its own, and one Pareto template at Procs
// 1 and 2 for the fan-out speed-up.
func traceExplore(b *bench, rep *report) error {
	run, err := measureExplore(b, rep)
	if err != nil {
		return err
	}
	serviceLayers(run.delta, rep.layers)
	ctx := context.Background()
	var exploreMS, minTau []float64
	var untraced, traced time.Duration
	for i := range run.tmpls {
		t := &run.tmpls[i]
		t0 := time.Now()
		if _, err := exploreInProcess(ctx, t.req, exploreWorkers); err != nil {
			return err
		}
		untraced += time.Since(t0)

		sp := rep.root.Start("op", trace.Int("op", i), trace.String("parent", "perfbench"), trace.String("mode", t.req.Mode()))
		es := sp.Start("schedule.explore")
		t0 = time.Now()
		res, err := exploreInProcess(ctx, t.req, exploreWorkers)
		d := time.Since(t0)
		es.End()
		traced += d
		if err != nil {
			return err
		}
		exploreMS = append(exploreMS, ms(d))
		rep.layers["schedule.explore_points"] += float64(len(res.Points) + res.Evaluated)
		rep.layers["schedule.front_points"] += float64(len(res.Front))
		if res.MinTauIn > 0 {
			minTau = append(minTau, res.MinTauIn)
		}
		b, err := schedroute.NewProblem(t.req.Problem)
		if err != nil {
			return err
		}
		for _, seed := range t.req.Axes.Placement.AnnealSeeds {
			as := sp.Start("alloc.anneal")
			t0 = time.Now()
			_, err := alloc.Anneal(b.Graph, b.Topology, alloc.AnnealOptions{Seed: seed})
			rep.layers["alloc.anneal_ms"] += ms(time.Since(t0))
			as.End()
			if err != nil {
				return err
			}
		}
		sp.End()
	}
	rep.layers["schedule.explore_ms.p50"] = median(exploreMS)
	rep.layers["schedule.explore_min_tau_in_us"] = mean(minTau)

	// Fan-out speed-up: the first Pareto template at 1 and at 2 workers.
	timed := func(procs int) (time.Duration, error) {
		t0 := time.Now()
		_, err := exploreInProcess(ctx, run.tmpls[0].req, procs)
		return time.Since(t0), err
	}
	serial, err := timed(1)
	if err != nil {
		return err
	}
	par, err := timed(exploreWorkers)
	if err != nil {
		return err
	}
	rep.layers["parallel.explore_speedup"] = serial.Seconds() / par.Seconds()
	rep.note("in-process replay of %d templates: untraced %.0f ms, traced %.0f ms (tracing overhead %+.1f%%)",
		len(run.tmpls), ms(untraced), ms(traced), 100*(ms(traced)-ms(untraced))/ms(untraced))
	return nil
}
