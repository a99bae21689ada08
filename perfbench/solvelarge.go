package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"schedroute/internal/cliutil"
	"schedroute/internal/cpsim"
	"schedroute/internal/schedule"
	"schedroute/internal/tfg"
	"schedroute/internal/trace"
	"schedroute/pkg/schedroute"
)

// solve-large compiles ~1000-task applications with srsched -save, one
// process per problem: every graph is solved on the 10-cube and on the
// 32x32 torus at τin = 200 µs.
const (
	largeTauIn  = 200
	largeGraphs = 4 // most graphs one run may reach
	largeSeed   = 1 // srsched's default AssignPaths seed
)

type largeMachine struct {
	topo string
	bw   float64
}

var largeMachines = []largeMachine{
	{cliutil.TenCubeTopo, cliutil.TenCubeBW},
	{cliutil.Torus32Topo, cliutil.Torus32BW},
}

// largeGraphSpecs draws n layered-graph specs in cliutil.LayeredLargeTFG's
// shape (960 tasks, ~2.6k messages), each with its own generator seed.
func largeGraphSpecs(seed int64, n int) []string {
	_, shape, _ := strings.Cut(strings.TrimPrefix(cliutil.LayeredLargeTFG, "layered:"), ",")
	rng := rand.New(rand.NewSource(seed))
	specs := make([]string, n)
	for i := range specs {
		specs[i] = fmt.Sprintf("layered:%d,%s", rng.Int63n(1<<31), shape)
	}
	return specs
}

// writeLargeGraph writes the graph spec as the tfggen JSON file
// large-<i>.json in dir and returns its path.
func writeLargeGraph(dir, spec string, i int) (string, error) {
	g, err := schedroute.LoadGraph(spec)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := tfg.Encode(&buf, g); err != nil {
		return "", err
	}
	p := filepath.Join(dir, fmt.Sprintf("large-%d.json", i))
	return p, os.WriteFile(p, buf.Bytes(), 0o644)
}

// cliSetupPasses is how often the CLI set-up runs. It takes about
// 10 ms, so one slow process start or page-cache moment moves a single
// pass by a quarter; the median of seven does not follow it.
const cliSetupPasses = 7

// cliSetup is the CLI workloads' set-up: write the input files, then
// one warm-up invocation of the tool on a small problem. It runs
// cliSetupPasses times and the median is reported.
func cliSetup(rep *report, prepare func() error, warm func() error) error {
	var times []float64
	for i := 0; i < cliSetupPasses; i++ {
		t0 := time.Now()
		if err := prepare(); err != nil {
			return err
		}
		if err := warm(); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(times), "s")
	return nil
}

var (
	reFeasible   = regexp.MustCompile(`\nFEASIBLE: \d+ intervals, (\d+) slices, (\d+) switching commands, latency ([0-9.e+]+) µs`)
	reInfeasible = regexp.MustCompile(`\nINFEASIBLE at stage: ([^\n]+)`)
	rePeak       = regexp.MustCompile(`after AssignPaths ([0-9.e+]+)`)
)

// srschedOutcome is what one srsched run reported. An infeasible
// problem is a valid outcome (srsched prints the rejecting stage and
// exits 1), counted in feasible_ratio rather than as a failed op.
type srschedOutcome struct {
	feasible      bool
	stage         string // rejecting stage when infeasible
	peak, latency float64
	commands      int
}

func parseSrsched(out []byte) (srschedOutcome, error) {
	var o srschedOutcome
	p := rePeak.FindSubmatch(out)
	if p == nil {
		return o, fmt.Errorf("no peak utilization in output: %q", lastLines(out, 3))
	}
	o.peak, _ = strconv.ParseFloat(string(p[1]), 64)
	if m := reInfeasible.FindSubmatch(out); m != nil {
		o.stage = string(m[1])
		return o, nil
	}
	m := reFeasible.FindSubmatch(out)
	if m == nil {
		return o, fmt.Errorf("neither FEASIBLE nor INFEASIBLE in output: %q", lastLines(out, 3))
	}
	o.feasible = true
	o.commands, _ = strconv.Atoi(string(m[2]))
	o.latency, _ = strconv.ParseFloat(string(m[3]), 64)
	return o, nil
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// solveLargeOp runs srsched -save on one problem and checks the run:
// exit 0 with a feasible schedule and a complete Ω file, whose sha256
// it returns, or exit 1 reporting the stage that rejected the problem.
func solveLargeOp(b *bench, graph string, m largeMachine) (cliRun, srschedOutcome, int64, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	omega := filepath.Join(b.work, "omega.json")
	defer os.Remove(omega)
	r, runErr := runCLI(b.tool("srsched"), "-tfg", graph, "-topo", m.topo,
		"-bw", strconv.FormatFloat(m.bw, 'g', -1, 64), "-tauin", strconv.Itoa(largeTauIn), "-save", omega)
	o, err := parseSrsched(r.stdout)
	var exit *exec.ExitError
	switch {
	case err != nil:
		return r, o, 0, sum, errors.Join(runErr, err)
	case !o.feasible && errors.As(runErr, &exit) && exit.ExitCode() == 1:
		return r, o, 0, sum, nil
	case runErr != nil || !o.feasible:
		return r, o, 0, sum, fmt.Errorf("exit %v with outcome %+v", runErr, o)
	}
	f, err := os.Open(omega)
	if err != nil {
		return r, o, 0, sum, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return r, o, 0, sum, err
	}
	copy(sum[:], h.Sum(nil))
	if n == 0 || o.commands == 0 {
		return r, o, n, sum, fmt.Errorf("empty Ω (%d bytes, %d commands)", n, o.commands)
	}
	return r, o, n, sum, nil
}

// runSolveLarge solves whole graph pairs, none that would overrun the
// run, and goes on past the run length until every machine has written
// an Ω, for at most largeGraphs graphs. Only feasible problems are
// timed and counted in latency and throughput: an infeasible one stops
// before interval scheduling and Ω, the costs this workload measures.
func runSolveLarge(b *bench, rep *report) error {
	specs := largeGraphSpecs(b.seed, largeGraphs)
	graphs := make([]string, 0, len(specs))
	err := cliSetup(rep, func() error {
		p, err := writeLargeGraph(b.work, specs[0], 0)
		graphs = append(graphs[:0], p)
		return err
	}, func() error {
		_, err := runCLI(b.tool("srsched"), "-tfg", "dvb:4", "-topo", "cube:6", "-bw", "64", "-tauin", "141")
		return err
	})
	if err != nil {
		return err
	}

	lat := make([][]float64, len(largeMachines)) // feasible op latencies per machine
	var rss, peaks, lats, sizes []float64
	var all []float64
	var run time.Duration // wall time of the pairs, without writing inputs
	for i := 0; i < len(specs); i++ {
		if i == len(graphs) {
			p, err := writeLargeGraph(b.work, specs[i], i)
			if err != nil {
				return err
			}
			graphs = append(graphs, p)
		}
		pairStart := time.Now()
		for j, m := range largeMachines {
			rep.attempted++
			r, o, n, _, err := solveLargeOp(b, graphs[i], m)
			rss = append(rss, r.rssMB)
			switch {
			case err != nil:
				rep.fail("%s on %s: %v", graphs[i], m.topo, err)
			case o.feasible:
				lat[j] = append(lat[j], ms(r.wall))
				all = append(all, ms(r.wall))
				peaks = append(peaks, o.peak)
				lats = append(lats, o.latency)
				sizes = append(sizes, float64(n)/(1<<20))
			default:
				rep.note("graph %d (%s) on %s: infeasible at stage %s, not timed", i, specs[i], m.topo, o.stage)
			}
		}
		pair := time.Since(pairStart)
		run += pair
		if run+pair > b.duration && everyNonEmpty(lat) {
			break
		}
	}
	// The median per machine, averaged over the machines, so a graph
	// infeasible on one machine does not tilt the figure to the other.
	var p50 float64
	for j, m := range largeMachines {
		if len(lat[j]) == 0 {
			rep.fail("no problem on %s wrote an Ω in %d graphs", m.topo, len(specs))
			continue
		}
		p50 += median(lat[j]) / float64(len(largeMachines))
	}
	rep.set("latency_ms.p50", p50, "ms")
	rep.set("throughput_ops_s", float64(len(all))/run.Seconds(), "1/s")
	rep.set("peak_rss_mb", maxOf(rss), "MB")
	rep.set("failed_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")
	rep.set("feasible_ratio", float64(len(all))/float64(rep.attempted), "ratio")
	rep.set("sched_latency_us", mean(lats), "us")
	rep.set("peak_util", mean(peaks), "ratio")
	rep.set("omega_mb", mean(sizes), "MB")
	rep.note("%d feasible of %d problems (%d graphs x %d machines); feasible op latencies ms: %.0f",
		len(all), rep.attempted, len(graphs), len(largeMachines), lat)
	return nil
}

func everyNonEmpty(xss [][]float64) bool {
	for _, xs := range xss {
		if len(xs) == 0 {
			return false
		}
	}
	return true
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// traceSolveLarge runs the first graph of the seed on both machines
// three ways and checks they agree byte for byte: srsched -save (the
// untraced op), the stage-by-stage rebuilt pipeline (traced), and an
// in-process Solver.Solve. The rebuilt Ω is then replayed packet by
// packet in cpsim.
func traceSolveLarge(b *bench, rep *report) error {
	graph, err := writeLargeGraph(b.work, largeGraphSpecs(b.seed, 1)[0], 0)
	if err != nil {
		return err
	}
	lt := &layerTimer{layers: rep.layers, allocs: true}
	var peaks []float64
	for i, m := range largeMachines {
		rep.attempted++
		op := rep.root.Start("op", trace.Int("op", i), trace.String("parent", "perfbench"), trace.String("topology", m.topo))
		if err := traceLargeOp(b, rep, lt, op, i, graph, m, &peaks); err != nil {
			rep.fail("%s on %s: %v", graph, m.topo, err)
		}
		op.End()
		runtime.GC()
	}
	rep.layers["schedule.assign_peak_util"] = mean(peaks)
	return nil
}

func traceLargeOp(b *bench, rep *report, lt *layerTimer, op *trace.Span, id int, graph string, m largeMachine, peaks *[]float64) error {
	cli, outcome, _, cliSum, err := solveLargeOp(b, graph, m)
	if err != nil {
		return err
	}
	spec := schedroute.Problem{TFG: graph, Topology: m.topo, Bandwidth: m.bw, TauIn: largeTauIn}

	// The rebuilt pipeline runs on freshly built inputs: Topology
	// memoizes shortest paths, so after any solve on the same topology
	// candidate search would read far too fast.
	var built *schedroute.Built
	lt.time(op, "schedroute.build", "schedroute.build_ms", "", func() {
		built, err = schedroute.NewProblem(spec)
	})
	if err != nil {
		return err
	}
	enc0 := lt.layers["schedule.omega_encode_ms"]
	t0 := time.Now()
	rb, err := rebuiltSolve(lt, op, &structure{built: built}, largeTauIn, largeSeed, true)
	tracedPipe := time.Since(t0)
	encode := lt.layers["schedule.omega_encode_ms"] - enc0
	if err != nil {
		return err
	}
	if got := rb.res.FailStage.String(); rb.res.Feasible != outcome.feasible || (!outcome.feasible && got != outcome.stage) {
		return fmt.Errorf("rebuilt pipeline feasible=%v stage %s, srsched feasible=%v stage %s", rb.res.Feasible, got, outcome.feasible, outcome.stage)
	}
	if !rb.res.Feasible {
		rep.note("op %d %s: infeasible at stage %s in srsched and in the rebuilt pipeline", id, m.topo, outcome.stage)
		return nil
	}
	*peaks = append(*peaks, rb.res.Peak)

	fresh, err := schedroute.NewProblem(spec)
	if err != nil {
		return err
	}
	t0 = time.Now()
	res, err := schedule.NewSolver(fresh.ScheduleProblem()).Solve(context.Background(), largeTauIn, schedule.Options{Seed: largeSeed})
	plain := time.Since(t0)
	if err != nil {
		return err
	}
	solveSum, _, err := hashOmega(res.Omega)
	if err != nil {
		return err
	}
	res = nil
	rbSum, rbSize, err := hashOmega(rb.res.Omega)
	if err != nil {
		return err
	}
	if rbSum != solveSum {
		return fmt.Errorf("rebuilt Ω differs from Solver.Solve's")
	}
	if rbSum != cliSum {
		return fmt.Errorf("rebuilt Ω differs from the Ω srsched -save wrote")
	}

	var out *cpsim.Result
	lt.time(op, "cpsim.run", "cpsim.run_ms", "", func() {
		out, err = cpsim.Run(cpsim.Config{Omega: rb.res.Omega, Graph: built.Graph, Topology: built.Topology,
			Bandwidth: m.bw, Invocations: 1})
	})
	if err != nil {
		return err
	}
	if len(out.Violations) > 0 {
		return fmt.Errorf("cpsim replay: %d violations, first %+v", len(out.Violations), out.Violations[0])
	}
	rep.note("op %d %s: srsched -save %.0f ms (untraced); Solver.Solve %.0f ms; rebuilt pipeline %.0f ms incl. encode (%.1f MB Ω, byte-identical to both); cpsim %d packets, 0 violations",
		id, m.topo, ms(cli.wall), ms(plain), ms(tracedPipe), float64(rbSize)/(1<<20), out.PacketsDelivered)
	rep.note("op %d tracing overhead: rebuilt pipeline without encode minus Solver.Solve = %.0f ms",
		id, ms(tracedPipe)-encode-ms(plain))
	return nil
}
