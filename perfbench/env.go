package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"schedroute/internal/trace"
)

// envStamp identifies the machine and the code a result was measured
// on, so results are only compared like with like.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git HEAD of the checkout, "none" outside a git tree.
	Commit string `json:"commit"`
}

func (e envStamp) String() string {
	return fmt.Sprintf("nproc=%d cpu=%q GOMAXPROCS=%d %s commit=%s",
		e.NumCPU, e.CPUModel, e.GOMAXPROCS, e.GoVersion, e.Commit)
}

// machineDiffs lists the machine fields on which two stamps differ;
// results measured on different machines are not comparable.
func (e envStamp) machineDiffs(o envStamp) []string {
	var d []string
	if e.NumCPU != o.NumCPU {
		d = append(d, fmt.Sprintf("nproc %d vs %d", e.NumCPU, o.NumCPU))
	}
	if e.CPUModel != o.CPUModel {
		d = append(d, fmt.Sprintf("cpu %q vs %q", e.CPUModel, o.CPUModel))
	}
	if e.GOMAXPROCS != o.GOMAXPROCS {
		d = append(d, fmt.Sprintf("GOMAXPROCS %d vs %d", e.GOMAXPROCS, o.GOMAXPROCS))
	}
	if e.GoVersion != o.GoVersion {
		d = append(d, fmt.Sprintf("go %s vs %s", e.GoVersion, o.GoVersion))
	}
	return d
}

func stampEnv() envStamp {
	e := envStamp{
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "none",
	}
	// GIT_DIR pins git to this checkout: outside a git tree it must not
	// find an enclosing repository's HEAD.
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Env = append(os.Environ(), "GIT_DIR=.git")
	if out, err := git.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// resultFile is the full record of one run, written next to the
// contract line: the stamp, the contract line itself, and every
// end-to-end number the workload defines (including the ones the
// contract line does not carry).
type resultFile struct {
	Env         envStamp          `json:"env"`
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       int               `json:"trace"`
	Result      resultLine        `json:"result"`
	AllEndToEnd map[string]metric `json:"all_end_to_end"`
}

// compareWith prints this run's metrics against an earlier result
// file, warning first when the two were measured on different
// machines or toolchains.
func compareWith(path string, cur resultFile) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old resultFile
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if d := cur.Env.machineDiffs(old.Env); len(d) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING: environment stamps differ (%s); the comparison below is not like for like\n", strings.Join(d, "; "))
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING: comparing %s/trace%d against %s/trace%d\n", cur.Workload, cur.Trace, old.Workload, old.Trace)
	}
	fmt.Printf("compare against %s (commit %s):\n", path, old.Env.Commit)
	names := make([]string, 0, len(cur.Result.Metrics))
	for n := range cur.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		now := cur.Result.Metrics[n].Value
		was, ok := old.Result.Metrics[n]
		if !ok {
			fmt.Printf("  %-38s %14.6g (new)\n", n, now)
			continue
		}
		change := "n/a"
		if was.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(now-was.Value)/was.Value)
		}
		fmt.Printf("  %-38s %14.6g vs %14.6g  %s\n", n, now, was.Value, change)
	}
	return nil
}

// writeChromeTrace exports the traced run's span tree in the Chrome
// trace_event form cmd/traceview emits.
func writeChromeTrace(path string, t *trace.Tree) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
