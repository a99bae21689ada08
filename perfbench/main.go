// Command perfbench is the end-to-end benchmark of the scheduled-routing
// reproduction. It runs one named workload against the built tools
// (srsched, srschedd, experiments), checks every output, and prints one
// JSON result line as the last line of standard output. With -trace 1
// it runs the workload's traced variant instead, which times calls into
// each layer's public functions from this package and reports the
// per-layer metrics. See README.md for the workloads and metrics.
//
// Build and run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"schedroute/internal/trace"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics every workload reports with -trace 0; they
// mirror the end_to_end list of BENCHMARK.json (TestSpecsMatchBenchmarkJSON).
// Each is defined on every workload and is never 0. peak_rss_mb is
// printed and recorded but not gated: between seeds it moved by more
// than any usable bound (explore: 17 to 27 MB, GC timing and the
// AssignPaths seed; solve-large: 1.0 or 1.45 GB, stepping with the Ω
// size of the seed's graph).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_ms.p50", "ms"},
	{"throughput_ops_s", "1/s"},
}

// perLayer are the metrics every workload reports with -trace 1; they
// mirror the per_layer list of BENCHMARK.json. A layer a workload does
// not exercise reads 0.
var perLayer = []metricSpec{
	{"schedroute.build_ms", "ms"},
	{"schedroute.wire_us", "us"},
	{"schedule.time_bounds_ms", "ms"},
	{"schedule.lsd_baseline_ms", "ms"},
	{"topology.candidate_search_ms", "ms"},
	{"topology.candidate_paths", "count"},
	{"schedule.assign_paths_ms", "ms"},
	{"schedule.assign_evals", "count"},
	{"schedule.attempts", "count"},
	{"schedule.assign_peak_util", "ratio"},
	{"schedule.maximal_subsets_ms", "ms"},
	{"schedule.subsets", "count"},
	{"lp.allocation_ms", "ms"},
	{"schedule.interval_scheduling_ms", "ms"},
	{"schedule.slices", "count"},
	{"schedule.interval_scheduling_alloc_mb", "MB"},
	{"schedule.omega_build_ms", "ms"},
	{"schedule.omega_commands", "count"},
	{"schedule.omega_validate_ms", "ms"},
	{"schedule.omega_build_alloc_mb", "MB"},
	{"schedule.omega_encode_ms", "ms"},
	{"schedule.omega_encode_alloc_mb", "MB"},
	{"schedule.omega_encoded_mb", "MB"},
	{"service.overhead_ms.p50", "ms"},
	{"service.response_kb.mean", "KB"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.structure_builds", "count"},
	{"service.coalesced", "count"},
	{"service.shed", "count"},
	{"service.stage_s.windows", "s"},
	{"service.stage_s.assign", "s"},
	{"service.stage_s.allocate", "s"},
	{"service.stage_s.schedule", "s"},
	{"service.stage_s.omega", "s"},
	{"schedule.repair_ms.p50", "ms"},
	{"schedule.repair_incremental_ratio", "ratio"},
	{"schedule.explore_ms.p50", "ms"},
	{"schedule.explore_points", "count"},
	{"schedule.front_points", "count"},
	{"schedule.explore_min_tau_in_us", "us"},
	{"alloc.anneal_ms", "ms"},
	{"parallel.explore_speedup", "x"},
	{"parallel.sweep_speedup", "x"},
	{"experiments.utilization_s", "s"},
	{"experiments.perf_s", "s"},
	{"experiments.survivability_s", "s"},
	{"experiments.tenant_s", "s"},
	{"wormhole.simulate_ms", "ms"},
	{"cpsim.run_ms", "ms"},
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct{ run, traced func(*bench, *report) error }{
	"solve-large": {runSolveLarge, traceSolveLarge},
	"serve-small": {runServeSmall, traceServeSmall},
	"explore":     {runExplore, traceExplore},
	"figures":     {runFigures, traceFigures},
}

// Where run.sh puts the built tools, and where runs keep their scratch
// files and results, relative to the repository root.
var (
	binDir  = filepath.Join(".bench_build", "bin")
	workDir = filepath.Join(".bench_build", "work")
)

// bench is one benchmark invocation's configuration.
type bench struct {
	seed     int64
	duration time.Duration
	bin      string // directory holding the built tools
	work     string // scratch directory for generated inputs and outputs
}

func (b *bench) tool(name string) string { return filepath.Join(b.bin, name) }

// metric is one reported value, in the result line's shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what a workload run measured and checked.
type report struct {
	attempted, failed int
	failures          []string
	e2e               map[string]metric  // every end-to-end number the workload defines
	layers            map[string]float64 // per-layer values (traced runs)
	notes             []string           // extra human-readable lines
	root              *trace.Span        // traced runs: the span tree written as a Chrome trace
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]float64{}}
}

// fail counts one failed op and keeps its reason (the first few are printed).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// resultLine is the contract line printed last on standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: solve-large, serve-small, explore or figures")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "measured run length in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	compare := flag.String("compare", "", "earlier result file to compare this run against (warns when the environment stamps differ)")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload solve-large|serve-small|explore|figures, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	for _, tool := range []string{"srsched", "srschedd", "experiments"} {
		if _, err := os.Stat(filepath.Join(binDir, tool)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (build the tools with run.sh)\n", err)
			os.Exit(1)
		}
	}
	b := &bench{seed: *seed, duration: time.Duration(*seconds) * time.Second, bin: binDir,
		work: filepath.Join(workDir, fmt.Sprintf("%s-%d", *workload, os.Getpid()))}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(b.work)

	rep := newReport()
	run := w.run
	if *traced == 1 {
		run = w.traced
		rep.root = trace.Start("perfbench", trace.String("workload", *workload), trace.Int64("seed", *seed))
	}
	if err := run(b, rep); err != nil {
		os.RemoveAll(b.work)
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}

	env := stampEnv()
	out := resultLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if *traced == 0 {
		for _, m := range endToEnd {
			v, ok := rep.e2e[m.name]
			if !ok {
				fatal(fmt.Errorf("%s: workload did not measure %s", *workload, m.name))
			}
			out.Metrics[m.name] = v
		}
	} else {
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{rep.layers[m.name], m.unit}
		}
	}
	printReport(*workload, env, rep, out)

	file := resultFile{Env: env, Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced,
		Result: out, AllEndToEnd: rep.e2e}
	resDir := filepath.Join(workDir, "results")
	path := filepath.Join(resDir, fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *traced))
	if err := writeJSONFile(path, file); err != nil {
		fatal(err)
	}
	fmt.Printf("result file: %s\n", path)
	if rep.root != nil {
		rep.root.End()
		tpath := filepath.Join(resDir, fmt.Sprintf("%s-seed%d.trace.json", *workload, *seed))
		if err := writeChromeTrace(tpath, rep.root.Tree()); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace: %s\n", tpath)
	}
	if *compare != "" {
		if err := compareWith(*compare, file); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: compare:", err)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printReport writes the human-readable part of the output: the
// environment stamp, every end-to-end number the workload defines, the
// per-layer values of a traced run, and any failed checks.
func printReport(workload string, env envStamp, rep *report, out resultLine) {
	fmt.Printf("workload %s: %d ops attempted, %d failed\n", workload, rep.attempted, rep.failed)
	fmt.Printf("env: %s\n", env)
	names := make([]string, 0, len(rep.e2e))
	for n := range rep.e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, rep.e2e[n].Value, rep.e2e[n].Unit)
	}
	if rep.root != nil {
		for _, m := range perLayer {
			if v := out.Metrics[m.name].Value; v != 0 {
				fmt.Printf("  %-38s %14.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	for _, f := range rep.failures {
		fmt.Println("FAILED:", f)
	}
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
