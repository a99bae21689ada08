package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"schedroute/internal/cpsim"
	"schedroute/internal/experiments"
	"schedroute/internal/schedule"
	"schedroute/internal/trace"
	"schedroute/internal/wormhole"
	"schedroute/pkg/schedroute"
)

// figures: the paper reproduction as the experiments CLI runs it. One
// cycle is three invocations — Figs. 5–10, the survivability sweep and
// the tenant isolation sweep — each on 2 workers, over the paper's
// fixed configurations at the CLI's default AssignPaths seed. The
// benchmark seed does not change these inputs: at some other seeds the
// tenant sweep exits 1 (on the 8x8 torus at 64 B/µs the bystander is
// rejected on an empty machine), a defect of the sweep this workload
// does not exercise.
const (
	figuresProcs     = 2
	figuresReference = "docs/results-latest.txt"
	figuresSeed      = 1 // experiments' default -seed
)

var figuresInvocations = [][]string{
	{"-all", "-procs", strconv.Itoa(figuresProcs)},
	{"-fig", "faults", "-procs", strconv.Itoa(figuresProcs)},
	{"-fig", "tenant", "-procs", strconv.Itoa(figuresProcs)},
}

// figureTables is the Figs. 5–10 part of an experiments report, blank
// lines dropped: everything before the first non-figure section.
func figureTables(report []byte) string {
	var out []string
	for _, line := range strings.Split(string(report), "\n") {
		if strings.HasPrefix(line, "==== ") && !strings.HasPrefix(line, "==== Figure ") {
			break
		}
		if strings.TrimSpace(line) != "" {
			out = append(out, strings.TrimRight(line, " "))
		}
	}
	return strings.Join(out, "\n")
}

// dropFigureHeaders removes the "==== Figure N ====" section lines.
func dropFigureHeaders(tables string) string {
	var out []string
	for _, line := range strings.Split(tables, "\n") {
		if !strings.HasPrefix(line, "==== Figure ") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// reVerified matches the "a/b" verification columns of the fault
// sweeps: repaired Ω verified by packet-level injection (faults) and
// bystander Ω left byte-identical (tenant).
var reVerified = regexp.MustCompile(`\b(\d+)/(\d+)\s*$`)

// checkFaultTable requires every verification column to read n/n.
func checkFaultTable(out []byte) error {
	rows := 0
	for _, line := range strings.Split(string(out), "\n") {
		m := reVerified.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		if m[1] != m[2] {
			return fmt.Errorf("verification column reads %s/%s: %q", m[1], m[2], line)
		}
	}
	if rows == 0 {
		return fmt.Errorf("no verified rows in output")
	}
	return nil
}

func runFigures(b *bench, rep *report) error {
	ref, err := os.ReadFile(figuresReference)
	if err != nil {
		return err
	}
	want := figureTables(ref)
	err = cliSetup(rep, func() error {
		ref, err = os.ReadFile(figuresReference)
		return err
	}, func() error {
		_, err := runCLI(b.tool("experiments"), "-fig", "5", "-procs", strconv.Itoa(figuresProcs))
		return err
	})
	if err != nil {
		return err
	}

	invs := figuresInvocations
	first := make([][]byte, len(invs))  // each invocation's output in cycle 0
	rss := make([][]float64, len(invs)) // peak RSS per invocation kind
	var lat []float64
	start := time.Now()
	for cycle := 0; ; cycle++ {
		cycleStart := time.Now()
		for i, args := range invs {
			rep.attempted++
			r, err := runCLI(b.tool("experiments"), args...)
			rss[i] = append(rss[i], r.rssMB)
			if err == nil {
				err = checkFigures(i, r.stdout, want, first)
			}
			if err != nil {
				rep.fail("experiments %s: %v", strings.Join(args, " "), err)
				continue
			}
			lat = append(lat, ms(r.wall))
		}
		// Whole cycles only, and no cycle that would overrun the run.
		if el := time.Since(start); el+time.Since(cycleStart) > b.duration {
			break
		}
	}
	wall := time.Since(start)
	rep.set("latency_ms.p50", median(lat), "ms")
	rep.set("throughput_ops_s", float64(len(lat))/wall.Seconds(), "1/s")
	// The largest invocation's typical peak: the median over its
	// repetitions, since one process's peak depends on where its
	// collections fall.
	peak := 0.0
	for _, r := range rss {
		peak = max(peak, median(r))
	}
	rep.set("peak_rss_mb", peak, "MB")
	rep.set("failed_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")
	rep.note("%d invocations (%d cycles of -all, -fig faults, -fig tenant)", rep.attempted, rep.attempted/len(invs))
	return nil
}

// checkFigures validates invocation i of a cycle: Figs. 5–10 must match
// the committed reference, the fault sweeps must verify every row, and
// every invocation must repeat its first cycle's output byte for byte.
func checkFigures(i int, out []byte, want string, first [][]byte) error {
	if first[i] != nil && !bytes.Equal(out, first[i]) {
		return fmt.Errorf("output differs from the run's first invocation")
	}
	if i == 0 {
		if got := figureTables(out); got != want {
			return fmt.Errorf("Figs. 5-10 differ from %s", figuresReference)
		}
	} else if err := checkFaultTable(out); err != nil {
		return err
	}
	if first[i] == nil {
		first[i] = out
	}
	return nil
}

// figureSweeps runs the four sweep families of one cycle in process at
// the given worker count, writing each table as the CLI does. With a
// parent span, each family is timed into its per-layer total and the
// sweeps record their own per-point spans underneath.
func figureSweeps(procs int, parent *trace.Span, layers map[string]float64) (map[string][]byte, error) {
	cfgs, err := experiments.StandardConfigs()
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(cfgs))
	for k := range cfgs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ctx := context.Background()
	out := map[string][]byte{}
	family := func(name string, fn func(sp *trace.Span, w io.Writer) error) error {
		var buf bytes.Buffer
		sp := parent.Start("experiments." + name)
		t0 := time.Now()
		err := fn(sp, &buf)
		if layers != nil {
			layers["experiments."+name+"_s"] += time.Since(t0).Seconds()
		}
		sp.End()
		out[name] = buf.Bytes()
		return err
	}
	err = family("utilization", func(sp *trace.Span, w io.Writer) error {
		for id := 5; id <= 6; id++ {
			figKeys, _ := experiments.Figure(id)
			for _, key := range figKeys {
				cfg := cfgs[key]
				cfg.Seed, cfg.Invocations, cfg.Warmup, cfg.Procs, cfg.Trace = figuresSeed, 40, 20, procs, sp
				s, err := experiments.UtilizationSweep(ctx, cfg)
				if err != nil {
					return err
				}
				if err := experiments.WriteUtilization(w, s); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil {
		err = family("perf", func(sp *trace.Span, w io.Writer) error {
			for id := 7; id <= 10; id++ {
				figKeys, _ := experiments.Figure(id)
				for _, key := range figKeys {
					cfg := cfgs[key]
					cfg.Seed, cfg.Invocations, cfg.Warmup, cfg.Procs, cfg.Trace = figuresSeed, 40, 20, procs, sp
					s, err := experiments.PerfSweep(ctx, cfg)
					if err != nil {
						return err
					}
					if err := experiments.WritePerf(w, s); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	if err == nil {
		err = family("survivability", func(sp *trace.Span, w io.Writer) error {
			for _, key := range keys {
				cfg := cfgs[key]
				cfg.Seed, cfg.Procs, cfg.VerifyFaults, cfg.Trace = figuresSeed, procs, true, sp
				s, err := experiments.SurvivabilitySweep(ctx, cfg)
				if err != nil {
					return err
				}
				if err := experiments.WriteSurvivability(w, s); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err == nil {
		err = family("tenant", func(sp *trace.Span, w io.Writer) error {
			for _, key := range keys {
				cfg := cfgs[key]
				cfg.Seed, cfg.Procs, cfg.Trace = figuresSeed, procs, sp
				s, err := experiments.TenantSurvivabilitySweep(ctx, cfg)
				if err != nil {
					return err
				}
				if err := experiments.WriteTenantSurvivability(w, s); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return out, err
}

// traceFigures times the sweep families in process at 1 and 2 workers
// (the outputs must agree, and the utilization tables must match the
// reference), then the wormhole simulator and the packet-level replay
// on their own over the 6-cube grid.
func traceFigures(b *bench, rep *report) error {
	ref, err := os.ReadFile(figuresReference)
	if err != nil {
		return err
	}
	t0 := time.Now()
	serialOut, err := figureSweeps(1, nil, nil)
	if err != nil {
		return err
	}
	serial := time.Since(t0)
	t0 = time.Now()
	if _, err := figureSweeps(figuresProcs, nil, nil); err != nil {
		return err
	}
	plain := time.Since(t0)
	op := rep.root.Start("op", trace.Int("op", 0), trace.String("parent", "perfbench"))
	t0 = time.Now()
	out, err := figureSweeps(figuresProcs, op, rep.layers)
	traced := time.Since(t0)
	op.End()
	if err != nil {
		return err
	}
	for name, text := range out {
		rep.attempted++
		if !bytes.Equal(text, serialOut[name]) {
			rep.fail("%s sweep: output at %d workers differs from the serial run", name, figuresProcs)
		}
	}
	// The in-process utilization and perf tables together are Figs. 5–10.
	rep.attempted++
	if got := figureTables(append(out["utilization"], out["perf"]...)); got != dropFigureHeaders(figureTables(ref)) {
		rep.fail("in-process Figs. 5-10 differ from %s", figuresReference)
	}
	rep.layers["parallel.sweep_speedup"] = serial.Seconds() / plain.Seconds()

	// The simulators on their own: every 6-cube load point.
	for i, bw := range []float64{64, 128} {
		sp := rep.root.Start("op", trace.Int("op", 1+i), trace.String("parent", "perfbench"))
		if err := traceSimulators(rep, sp, bw); err != nil {
			rep.fail("simulators at %g B/µs: %v", bw, err)
		}
		sp.End()
	}
	rep.note("in-process sweeps: serial %.0f ms, %d workers %.0f ms, traced %.0f ms (tracing overhead %+.1f%%)",
		ms(serial), figuresProcs, ms(plain), ms(traced), 100*(ms(traced)-ms(plain))/ms(plain))
	return nil
}

// traceSimulators times wormhole.Simulate at every load point of the
// paper's grid and cpsim.Run on every feasible scheduled-routing Ω.
func traceSimulators(rep *report, sp *trace.Span, bw float64) error {
	b, err := schedroute.NewProblem(schedroute.Problem{TFG: "dvb:4", Topology: "cube:6", Bandwidth: bw})
	if err != nil {
		return err
	}
	solver := schedule.NewSolver(b.ScheduleProblem())
	lt := &layerTimer{layers: rep.layers}
	for k := 0; k < 12; k++ {
		rep.attempted++
		tauIn := paperTauIn(b.Timing.TauC(), k)
		var wres *wormhole.Result
		lt.time(sp, "wormhole.simulate", "wormhole.simulate_ms", "", func() {
			wres, err = wormhole.Simulate(wormhole.Config{Graph: b.Graph, Timing: b.Timing, Topology: b.Topology,
				Assignment: b.Assignment, TauIn: tauIn, Invocations: 40, Warmup: 20})
		})
		if err != nil {
			return err
		}
		if wres.Deadlocked {
			rep.note("wormhole deadlock at τin %g (%g B/µs)", tauIn, bw)
		}
		res, err := solver.Solve(context.Background(), tauIn, schedule.Options{Seed: 1})
		if err != nil {
			return err
		}
		if !res.Feasible {
			continue
		}
		var out *cpsim.Result
		lt.time(sp, "cpsim.run", "cpsim.run_ms", "", func() {
			out, err = cpsim.Run(cpsim.Config{Omega: res.Omega, Graph: b.Graph, Topology: b.Topology, Bandwidth: bw})
		})
		if err != nil {
			return err
		}
		if len(out.Violations) > 0 {
			return fmt.Errorf("cpsim at τin %g: %d violations", tauIn, len(out.Violations))
		}
	}
	return nil
}
