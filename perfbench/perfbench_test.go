package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// streamBytes serializes a request stream the way it goes on the wire.
func streamBytes(stream []request) []byte {
	var buf bytes.Buffer
	for _, r := range stream {
		buf.WriteString(r.path)
		buf.WriteByte('\n')
		buf.Write(r.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSameSeedSameServeStream(t *testing.T) {
	_, a, err := genServeSmall(5, solverCache{})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := genServeSmall(5, solverCache{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamBytes(a), streamBytes(b)) {
		t.Fatal("seed 5 produced two different serve-small request streams")
	}
	_, c, err := genServeSmall(6, solverCache{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(streamBytes(a), streamBytes(c)) {
		t.Fatal("seeds 5 and 6 produced the same serve-small request stream")
	}
}

func TestServeStreamMixesKinds(t *testing.T) {
	tmpls, _, err := genServeSmall(5, solverCache{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	structs := map[string]bool{}
	for _, tm := range tmpls {
		switch {
		case tm.repair != nil:
			kinds["repair"]++
		case tm.omega:
			kinds["omega"]++
		default:
			kinds["schedule"]++
		}
		structs[tm.problem.StructureKey()] = true
	}
	if kinds["repair"] == 0 || kinds["omega"] == 0 || kinds["schedule"] == 0 {
		t.Fatalf("template kinds %v: want schedules, repairs and include_omega requests", kinds)
	}
	if len(structs) <= 32 {
		t.Fatalf("%d structures: want more than srschedd's default 32-entry solver cache", len(structs))
	}
}

func TestSameSeedSameExploreStream(t *testing.T) {
	_, a, err := genExplore(9)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := genExplore(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamBytes(a), streamBytes(b)) {
		t.Fatal("seed 9 produced two different explore request streams")
	}
}

func TestSameSeedSameLargeGraphs(t *testing.T) {
	write := func(dir string) []string {
		var paths []string
		for i, spec := range largeGraphSpecs(7, 2) {
			p, err := writeLargeGraph(dir, spec, i)
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
		return paths
	}
	p1, p2 := write(t.TempDir()), write(t.TempDir())
	for i := range p1 {
		a, _ := os.ReadFile(p1[i])
		b, _ := os.ReadFile(p2[i])
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Fatalf("graph %d differs between two writes of seed 7 (%d vs %d bytes)", i, len(a), len(b))
		}
	}
	a, _ := os.ReadFile(p1[0])
	b, _ := os.ReadFile(p1[1])
	if bytes.Equal(a, b) {
		t.Fatal("the two graphs of one seed are identical")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // 10 samples above rank 90
		{99, 0.90, 90, false},   // rank ceil(89.1)=90 leaves 9 above
		{1000, 0.99, 990, true}, // 10 above
		{999, 0.99, 990, false}, // 9 above
		{40, 0.90, 36, false},
		{1, 0.99, 1, false},
	} {
		v, ok := tailPercentile(seq(tc.n), tc.q)
		if v != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(n=%d, q=%g) = %g, %v; want %g, %v", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of 1,3,5 = %g, want 3", m)
	}
}

func TestMetricsDeltaOnCapturedExposition(t *testing.T) {
	read := func(name string) series {
		f, err := os.Open(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		s, err := parseExposition(f)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Captured from srschedd around four /v1/schedule requests: three
	// periods of one structure and one request of a second structure.
	d := delta(read("metrics_before.txt"), read("metrics_after.txt"))
	if got := d.sum("srschedd_requests_total", `endpoint="schedule"`, `code="200"`); got != 4 {
		t.Errorf("schedule 200s = %g, want 4", got)
	}
	layers := map[string]float64{}
	serviceLayers(d, layers)
	want := map[string]float64{
		"service.cache_hit_ratio":  0.5,
		"service.structure_builds": 2,
		"service.coalesced":        0,
		"service.shed":             0,
	}
	for k, v := range want {
		if layers[k] != v {
			t.Errorf("%s = %g, want %g", k, layers[k], v)
		}
	}
	// The stage totals were absent before the first solve: the delta
	// counts them from zero.
	if got := layers["service.stage_s.assign"]; math.Abs(got-0.002074794) > 1e-12 {
		t.Errorf("service.stage_s.assign = %g, want 0.002074794", got)
	}
}

// TestSpecsMatchBenchmarkJSON keeps perfbench's metric tables and the
// repository's BENCHMARK.json in step.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in perfbench", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, perfbench runs %d", len(doc.Workloads), len(workloads))
	}
}

func TestFigureTablesStopAtFirstNonFigureSection(t *testing.T) {
	report := []byte("==== Figure 5 ====\n# cfg\nload U\n\n1.0 2.0   \n\n==== Figure 6 ====\nx\n==== Performance ====\ny\n")
	if got, want := figureTables(report), "==== Figure 5 ====\n# cfg\nload U\n1.0 2.0\n==== Figure 6 ====\nx"; got != want {
		t.Errorf("figureTables = %q, want %q", got, want)
	}
	if err := checkFaultTable([]byte("0.5 feasible 192 1.0 191/192\n")); err == nil {
		t.Error("a 191/192 verification row passed the fault-table check")
	}
	if err := checkFaultTable([]byte("0.5 feasible 192 1.0 192/192\n")); err != nil {
		t.Errorf("a 192/192 row failed: %v", err)
	}
}

func TestParseSrschedOutcomes(t *testing.T) {
	feasible := []byte("TFG rand-7: 960 tasks, 2635 messages; topology ghc (5120 links)\n" +
		"peak utilization: LSD-to-MSD 0.8882, after AssignPaths 0.5686\n" +
		"FEASIBLE: 4 intervals, 2501 slices, 1716091 switching commands, latency 1550 µs (1.7568× critical path)\n")
	o, err := parseSrsched(feasible)
	if err != nil || !o.feasible || o.commands != 1716091 || o.latency != 1550 || o.peak != 0.5686 {
		t.Errorf("feasible output parsed as %+v, %v", o, err)
	}
	infeasible := []byte("peak utilization: LSD-to-MSD 1.2, after AssignPaths 0.9\nINFEASIBLE at stage: interval scheduling\n")
	o, err = parseSrsched(infeasible)
	if err != nil || o.feasible || o.stage != "interval scheduling" {
		t.Errorf("infeasible output parsed as %+v, %v", o, err)
	}
	if _, err := parseSrsched([]byte("srsched: bad flag\n")); err == nil {
		t.Error("output without an outcome parsed without error")
	}
}
