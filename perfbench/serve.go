package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"schedroute/internal/cpsim"
	"schedroute/internal/schedule"
	"schedroute/internal/topology"
	"schedroute/internal/trace"
	"schedroute/pkg/schedroute"
)

// serve-small: the paper's applications on its 64-node machines, as a
// closed loop of 2 connections against srschedd. The structure set
// (apps x machines x bandwidths = 48) is larger than srschedd's default
// 32-entry solver cache, so the stream mixes cache hits and misses.
var (
	serveApps     = []string{"dvb:3", "dvb:4", "chain:8", "fan:6", "stencil:4", "fft:3"}
	serveMachines = []string{"cube:6", "ghc:4,4,4", "torus:8,8", "torus:4,4,4"}
	serveBWs      = []float64{64, 128}
)

// The request mix is an assumption, not observed traffic: no srschedd
// traffic has been recorded to derive it from. The shares below only
// put numbers on "most requests schedule, some repair, a few ask for
// include_omega"; templates are weighted uniformly; the 2 connections
// keep one request in flight per core of a 2-core machine.
const (
	serveConns     = 2
	serveTemplates = 192   // distinct requests: 4 per structure
	serveStreamLen = 50000 // the stream wraps if a run serves more
	serveReplayMax = 3000  // requests replayed in-process by the traced run
	serveOmegaPct  = 4     // share of templates asking for include_omega, % (assumed)
	serveRepairPct = 12    // share of templates that are repairs, % (assumed)
)

// paperTauIn is point k of the paper's 12-point load grid τc·(1+4k/11).
func paperTauIn(tauC float64, k int) float64 { return tauC * (1 + 4*float64(k)/11) }

// serveTemplate is one distinct request and the response an in-process
// solve (or repair) of the same spec produces.
type serveTemplate struct {
	path    string // /v1/schedule or /v1/repair
	body    []byte
	problem schedroute.Problem
	omega   bool   // include_omega
	fault   string // repair: the failed link as "u-v"
	sched   *schedroute.ScheduleResult
	repair  *schedroute.RepairResult
}

// solverCache holds one built problem and Solver per structure key for
// the in-process side of the benchmark.
type solverCache map[string]*cachedSolver

type cachedSolver struct {
	built  *schedroute.Built
	solver *schedule.Solver
}

func (c solverCache) get(p schedroute.Problem) (*cachedSolver, error) {
	key := p.StructureKey()
	if e, ok := c[key]; ok {
		return e, nil
	}
	b, err := schedroute.NewProblem(p)
	if err != nil {
		return nil, err
	}
	e := &cachedSolver{built: b, solver: schedule.NewSolver(b.ScheduleProblem())}
	c[key] = e
	return e, nil
}

// serveStructures lists the 48 problem structures in a fixed order.
func serveStructures() []schedroute.Problem {
	var out []schedroute.Problem
	for _, app := range serveApps {
		for _, m := range serveMachines {
			for _, bw := range serveBWs {
				out = append(out, schedroute.Problem{TFG: app, Topology: m, Bandwidth: bw})
			}
		}
	}
	return out
}

// genServeSmall draws the seed's templates and request stream, solving
// each template in process for its expected response. Repairs and
// include_omega requests are drawn only on feasible bases, and a repair
// only where the in-process ladder succeeds, so no request of the
// stream is expected to fail.
func genServeSmall(seed int64, cache solverCache) ([]serveTemplate, []request, error) {
	rng := rand.New(rand.NewSource(seed))
	structs := serveStructures()
	ctx := context.Background()
	// The seed permutes fixed histograms of load points and request
	// kinds over the templates, so every seed asks for the same amount
	// of each and only the pairing with structures varies.
	ks := rng.Perm(serveTemplates)
	kinds := rng.Perm(serveTemplates)
	omegas := serveTemplates * serveOmegaPct / 100
	repairs := serveTemplates * serveRepairPct / 100
	tmpls := make([]serveTemplate, 0, serveTemplates)
	for i := 0; i < serveTemplates; i++ {
		p := structs[i%len(structs)]
		cs, err := cache.get(p)
		if err != nil {
			return nil, nil, err
		}
		linkPick := rng.Int63()
		tauIn := paperTauIn(cs.built.Timing.TauC(), ks[i]%12)
		t := serveTemplate{path: "/v1/schedule", problem: p}
		t.problem.TauIn = tauIn
		res, err := cs.solver.Solve(ctx, tauIn, schedule.Options{})
		if err != nil {
			return nil, nil, err
		}
		switch {
		case kinds[i] < omegas && res.Feasible:
			t.omega = true
		case kinds[i] < omegas+repairs && res.Feasible:
			if rep := pickRepair(ctx, cs, tauIn, res, linkPick); rep != nil {
				t.path, t.fault = "/v1/repair", rep.fault
				t.repair, err = schedroute.NewRepairResult(rep.report, false)
				if err != nil {
					return nil, nil, err
				}
			}
		}
		if t.repair == nil {
			t.sched, err = schedroute.NewScheduleResult(cs.built, res, tauIn, t.omega, false)
			if err != nil {
				return nil, nil, err
			}
			if t.omega {
				var c bytes.Buffer
				if err := json.Compact(&c, t.sched.Omega); err != nil {
					return nil, nil, err
				}
				t.sched.Omega = c.Bytes()
			}
			t.body, err = json.Marshal(schedroute.ScheduleRequest{Problem: t.problem, IncludeOmega: t.omega})
		} else {
			t.body, err = json.Marshal(schedroute.RepairRequest{Problem: t.problem, Fault: schedroute.FaultSpec{Links: []string{t.fault}}})
		}
		if err != nil {
			return nil, nil, err
		}
		tmpls = append(tmpls, t)
	}
	return tmpls, permutedStream(rng, serveStreamLen, len(tmpls), func(j int) request {
		return request{path: tmpls[j].path, body: tmpls[j].body, tmpl: j}
	}), nil
}

// permutedStream lays out n requests as consecutive random permutations
// of the templates, so every stretch of the stream asks for each
// template equally often.
func permutedStream(rng *rand.Rand, n, templates int, req func(j int) request) []request {
	stream := make([]request, 0, n)
	for len(stream) < n {
		for _, j := range rng.Perm(templates) {
			if len(stream) == n {
				break
			}
			stream = append(stream, req(j))
		}
	}
	return stream
}

type pickedRepair struct {
	fault  string
	report *schedule.RepairReport
}

// pickRepair fails one link on the base schedule's routes, chosen from
// pick, trying a few links until the repair ladder succeeds in process.
func pickRepair(ctx context.Context, cs *cachedSolver, tauIn float64, base *schedule.Result, pick int64) *pickedRepair {
	top := cs.built.Topology
	var used []topology.LinkID
	for _, links := range base.Assignment.Links {
		used = append(used, links...)
	}
	if len(used) == 0 {
		return nil
	}
	r := rand.New(rand.NewSource(pick))
	for try := 0; try < 4; try++ {
		l := top.Link(used[r.Intn(len(used))])
		spec := schedroute.FaultSpec{Links: []string{fmt.Sprintf("%d-%d", l.A, l.B)}}
		fs, err := spec.Build(top)
		if err != nil {
			continue
		}
		rep, err := schedule.Repair(ctx, cs.built.ScheduleProblemAt(tauIn), schedule.Options{}, base, fs)
		if err == nil && rep.Err() == nil {
			return &pickedRepair{fault: spec.Links[0], report: rep}
		}
	}
	return nil
}

// check compares one response against its template's in-process
// result: status 200, then feasibility, fail stage, peaks, latency,
// counts and Ω bytes for schedules, and the ladder outcome for repairs.
func (t *serveTemplate) check(status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if t.repair != nil {
		var got schedroute.RepairResult
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		w := t.repair
		if got.Outcome != w.Outcome || got.Stage != w.Stage || got.Affected != w.Affected || got.Rerouted != w.Rerouted ||
			got.NewPeak != w.NewPeak || got.TauOut != w.TauOut || got.WindowScale != w.WindowScale || got.Faults != w.Faults {
			return fmt.Errorf("repair %s: got %+v, want %+v", t.fault, got, *w)
		}
		return nil
	}
	var got schedroute.ScheduleResult
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	w := t.sched
	if got.Feasible != w.Feasible || got.FailStage != w.FailStage || got.Peak != w.Peak || got.PeakLSD != w.PeakLSD ||
		got.Latency != w.Latency || got.TauIn != w.TauIn || got.Intervals != w.Intervals || got.Slices != w.Slices || got.Commands != w.Commands {
		return fmt.Errorf("schedule: got feasible=%v stage=%q peak=%g latency=%g commands=%d, want %v %q %g %g %d",
			got.Feasible, got.FailStage, got.Peak, got.Latency, got.Commands, w.Feasible, w.FailStage, w.Peak, w.Latency, w.Commands)
	}
	if !bytes.Equal(got.Omega, w.Omega) {
		return fmt.Errorf("schedule: Ω differs from the in-process solve's (%d vs %d bytes)", len(got.Omega), len(w.Omega))
	}
	return nil
}

// serveWarmup is one request per structure: the first template of each.
func serveWarmup(tmpls []serveTemplate) []request {
	seen := map[string]bool{}
	var out []request
	for i, t := range tmpls {
		if key := t.problem.StructureKey(); !seen[key] {
			seen[key] = true
			out = append(out, request{path: t.path, body: t.body, tmpl: i})
		}
	}
	return out
}

// serveRun is the timed part shared by the plain and traced runs.
type serveRun struct {
	*serviceRun
	tmpls  []serveTemplate
	stream []request
}

func measureServe(b *bench, rep *report, cache solverCache) (*serveRun, error) {
	tmpls, stream, err := genServeSmall(b.seed, cache)
	if err != nil {
		return nil, err
	}
	run, err := runService(b, rep, serveWarmup(tmpls), serveConns, len(tmpls), stream,
		func(op, status int, body []byte) error { return tmpls[stream[op%len(stream)].tmpl].check(status, body) },
		"-workers", "2")
	if err != nil {
		return nil, err
	}
	return &serveRun{serviceRun: run, tmpls: tmpls, stream: stream}, nil
}

// verifyOmegas decodes every include_omega template's Ω the run served
// and replays it in cpsim; a violation fails the template's requests.
func verifyOmegas(rep *report, run *serveRun, cache solverCache) {
	served := map[int]int{}
	for _, s := range run.samples {
		served[run.stream[s.op%len(run.stream)].tmpl]++
	}
	for i, n := range served {
		t := &run.tmpls[i]
		if !t.omega {
			continue
		}
		om, err := schedule.DecodeOmega(bytes.NewReader(t.sched.Omega))
		if err == nil {
			var cs *cachedSolver
			if cs, err = cache.get(t.problem); err == nil {
				var out *cpsim.Result
				out, err = cpsim.Run(cpsim.Config{Omega: om, Graph: cs.built.Graph, Topology: cs.built.Topology, Bandwidth: t.problem.Bandwidth})
				if err == nil && len(out.Violations) > 0 {
					err = fmt.Errorf("%d cpsim violations", len(out.Violations))
				}
			}
		}
		if err != nil {
			for j := 0; j < n; j++ {
				rep.fail("include_omega template %d: %v", i, err)
			}
		}
	}
}

func runServeSmall(b *bench, rep *report) error {
	cache := solverCache{}
	run, err := measureServe(b, rep, cache)
	if err != nil {
		return err
	}
	verifyOmegas(rep, run, cache)

	lat := run.setLatency(rep)
	var peaks, lats, omegaMB []float64
	feasible := 0
	for _, s := range run.samples {
		t := &run.tmpls[run.stream[s.op%len(run.stream)].tmpl]
		switch {
		case t.repair != nil:
			feasible++
		case t.sched.Feasible:
			feasible++
			peaks = append(peaks, t.sched.Peak)
			lats = append(lats, t.sched.Latency)
			if t.omega {
				omegaMB = append(omegaMB, float64(len(t.sched.Omega))/(1<<20))
			}
		}
	}
	if p99, ok := tailPercentile(lat, 0.99); ok {
		rep.set("latency_ms.p99", p99, "ms")
	} else {
		rep.note("latency_ms.p99 not reported: fewer than %d samples beyond it (n=%d)", minBeyond, len(lat))
	}
	rep.set("feasible_ratio", float64(feasible)/float64(len(lat)), "ratio")
	rep.set("sched_latency_us", mean(lats), "us")
	rep.set("peak_util", mean(peaks), "ratio")
	rep.set("omega_mb", mean(omegaMB), "MB")
	hits := run.delta.sum("srschedd_solver_cache_hits_total")
	misses := run.delta.sum("srschedd_solver_cache_misses_total")
	rep.note("%d requests over %d connections on %d servers; solver cache %g hits / %g misses", len(lat), serveConns, serviceSegments, hits, misses)
	return nil
}

// traceServeSmall repeats the timed run (for the /metrics delta and the
// HTTP latencies), then replays the first requests it served in
// process twice: plainly through Solver.Solve / Repair and the wire
// result constructors, and stage by stage through the rebuilt pipeline.
func traceServeSmall(b *bench, rep *report) error {
	cache := solverCache{}
	run, err := measureServe(b, rep, cache)
	if err != nil {
		return err
	}
	verifyOmegas(rep, run, cache)
	serviceLayers(run.delta, rep.layers)
	var kb []float64
	for _, s := range run.samples {
		kb = append(kb, float64(s.bytes)/1024)
	}
	rep.layers["service.response_kb.mean"] = mean(kb)

	n := min(len(run.samples), serveReplayMax)
	byOp := make(map[int]time.Duration, len(run.samples))
	for _, s := range run.samples {
		byOp[s.op] = s.latency
	}
	// Plain replay: what the service does per request, minus HTTP.
	ctx := context.Background()
	plainCache := solverCache{}
	var overhead []float64
	t0 := time.Now()
	for op := 0; op < n; op++ {
		r := run.stream[op%len(run.stream)]
		start := time.Now()
		if err := replayPlain(ctx, plainCache, r); err != nil {
			rep.fail("plain replay op %d: %v", op, err)
			continue
		}
		if lat, ok := byOp[op]; ok {
			overhead = append(overhead, ms(lat-time.Since(start)))
		}
	}
	plain := time.Since(t0)
	rep.layers["service.overhead_ms.p50"] = median(overhead)

	// Traced replay: the same requests through the rebuilt pipeline.
	lt := &layerTimer{layers: rep.layers}
	structs := map[string]*structure{}
	var repairMS, peaks []float64
	incremental := 0
	t0 = time.Now()
	for op := 0; op < n; op++ {
		r := run.stream[op%len(run.stream)]
		t := &run.tmpls[r.tmpl]
		sp := rep.root.Start("op", trace.Int("op", op), trace.String("parent", "perfbench"), trace.String("endpoint", t.path))
		rm, err := replayTraced(ctx, lt, sp, structs, t, r)
		sp.End()
		if err != nil {
			rep.fail("traced replay op %d: %v", op, err)
			continue
		}
		if t.sched != nil && t.sched.Feasible {
			peaks = append(peaks, t.sched.Peak)
		}
		if rm != nil {
			repairMS = append(repairMS, rm.ms)
			if rm.outcome == schedule.RepairIncremental {
				incremental++
			}
		}
	}
	traced := time.Since(t0)
	rep.layers["schedule.assign_peak_util"] = mean(peaks)
	rep.layers["schedule.repair_ms.p50"] = median(repairMS)
	if len(repairMS) > 0 {
		rep.layers["schedule.repair_incremental_ratio"] = float64(incremental) / float64(len(repairMS))
	}
	rep.note("replayed %d of %d requests in process: plain %.0f ms, traced %.0f ms (tracing overhead %+.1f%%)",
		n, len(run.samples), ms(plain), ms(traced), 100*(ms(traced)-ms(plain))/ms(plain))
	return nil
}

// replayPlain serves one request in process the way srschedd does:
// decode, structure lookup, solve (and repair), result, marshal.
func replayPlain(ctx context.Context, cache solverCache, r request) error {
	var fault schedroute.FaultSpec
	var p schedroute.Problem
	var includeOmega bool
	if r.path == "/v1/repair" {
		var req schedroute.RepairRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		p, fault = req.Problem, req.Fault
	} else {
		var req schedroute.ScheduleRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		p, includeOmega = req.Problem, req.IncludeOmega
	}
	cs, err := cache.get(p)
	if err != nil {
		return err
	}
	res, err := cs.solver.Solve(ctx, p.TauIn, schedule.Options{CollectStats: true})
	if err != nil {
		return err
	}
	var out any
	if fault.Empty() {
		out, err = schedroute.NewScheduleResult(cs.built, res, p.TauIn, includeOmega, false)
	} else {
		fs, ferr := fault.Build(cs.built.Topology)
		if ferr != nil {
			return ferr
		}
		rep, rerr := schedule.Repair(ctx, cs.built.ScheduleProblemAt(p.TauIn), schedule.Options{}, res, fs)
		if rerr != nil {
			return rerr
		}
		out, err = schedroute.NewRepairResult(rep, false)
	}
	if err != nil {
		return err
	}
	_, err = json.Marshal(out)
	return err
}

type repairTiming struct {
	ms      float64
	outcome schedule.RepairOutcome
}

// replayTraced serves one request through the rebuilt pipeline, timing
// each layer, and checks the result against the template's expected
// response (the rebuilt pipeline must agree with Solver.Solve).
func replayTraced(ctx context.Context, lt *layerTimer, sp *trace.Span, structs map[string]*structure, t *serveTemplate, r request) (*repairTiming, error) {
	var err error
	wire0 := time.Now()
	var req schedroute.RepairRequest // a superset of ScheduleRequest's fields
	if err := json.Unmarshal(r.body, &req); err != nil {
		return nil, err
	}
	wire := time.Since(wire0)
	key := req.Problem.StructureKey()
	st := structs[key]
	if st == nil {
		st = &structure{}
		lt.time(sp, "schedroute.build", "schedroute.build_ms", "", func() {
			st.built, err = schedroute.NewProblem(req.Problem)
		})
		if err != nil {
			return nil, err
		}
		structs[key] = st
	}
	rb, err := rebuiltSolve(lt, sp, st, req.Problem.TauIn, 0, false)
	if err != nil {
		return nil, err
	}
	var out any
	var timing *repairTiming
	if t.repair == nil {
		wire0 = time.Now()
		sr, err := schedroute.NewScheduleResult(st.built, rb.res, req.Problem.TauIn, t.omega, false)
		if err != nil {
			return nil, err
		}
		out = sr
		wire += time.Since(wire0)
		if sr.Feasible != t.sched.Feasible || sr.Peak != t.sched.Peak || sr.Commands != t.sched.Commands || sr.FailStage != t.sched.FailStage {
			return nil, fmt.Errorf("rebuilt pipeline disagrees with Solver.Solve: feasible=%v peak=%g commands=%d, want %v %g %d",
				sr.Feasible, sr.Peak, sr.Commands, t.sched.Feasible, t.sched.Peak, t.sched.Commands)
		}
		if t.omega {
			var res *cpsim.Result
			lt.time(sp, "cpsim.run", "cpsim.run_ms", "", func() {
				res, err = cpsim.Run(cpsim.Config{Omega: rb.res.Omega, Graph: st.built.Graph, Topology: st.built.Topology, Bandwidth: req.Problem.Bandwidth})
			})
			if err != nil {
				return nil, err
			}
			if len(res.Violations) > 0 {
				return nil, fmt.Errorf("cpsim: %d violations", len(res.Violations))
			}
		}
	} else {
		fs, err := req.Fault.Build(st.built.Topology)
		if err != nil {
			return nil, err
		}
		var rep *schedule.RepairReport
		rsp := sp.Start("schedule.repair")
		r0 := time.Now()
		rep, err = schedule.Repair(ctx, st.built.ScheduleProblemAt(req.Problem.TauIn), schedule.Options{}, rb.res, fs)
		timing = &repairTiming{ms: ms(time.Since(r0))}
		rsp.End()
		if err != nil {
			return nil, err
		}
		timing.outcome = rep.Outcome
		wire0 = time.Now()
		rr, err := schedroute.NewRepairResult(rep, false)
		if err != nil {
			return nil, err
		}
		out = rr
		wire += time.Since(wire0)
		if rr.Outcome != t.repair.Outcome || rr.NewPeak != t.repair.NewPeak {
			return nil, fmt.Errorf("repair on the rebuilt base: outcome %s peak %g, want %s %g", rr.Outcome, rr.NewPeak, t.repair.Outcome, t.repair.NewPeak)
		}
	}
	wire0 = time.Now()
	if _, err := json.Marshal(out); err != nil {
		return nil, err
	}
	wire += time.Since(wire0)
	lt.layers["schedroute.wire_us"] += float64(wire) / float64(time.Microsecond)
	return timing, nil
}
