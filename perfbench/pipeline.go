package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"time"

	"schedroute/internal/schedule"
	"schedroute/internal/tfg"
	"schedroute/internal/trace"
	"schedroute/pkg/schedroute"
)

// peakEps mirrors the pipeline's feasibility tolerance on the peak
// link utilization (schedule's timeEps).
const peakEps = 1e-6

// Default AssignPaths budgets, as schedule.Options documents them.
const (
	defaultMaxPaths = 24
	defaultMaxOuter = 6
	defaultMaxInner = 60
)

// layerTimer wraps calls into a layer's public functions in spans and
// accumulates their wall time — and, for the stages whose memory
// matters, their allocated bytes — into per-layer totals.
type layerTimer struct {
	layers map[string]float64
	allocs bool // record runtime.MemStats allocation deltas
}

// time runs fn under a child span of parent named name, adds its wall
// time in milliseconds to msKey and, when allocKey is set and the timer
// records allocations, its allocated megabytes to allocKey.
func (lt *layerTimer) time(parent *trace.Span, name, msKey, allocKey string, fn func()) {
	var m0 runtime.MemStats
	if lt.allocs && allocKey != "" {
		runtime.ReadMemStats(&m0)
	}
	sp := parent.Start(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.End()
	lt.layers[msKey] += ms(d)
	if lt.allocs && allocKey != "" {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		lt.layers[allocKey] += mb
		sp.SetAttrs(trace.Float64("alloc_mb", mb))
	}
}

// structure is the τin-independent state the rebuilt pipeline reuses
// across solves of one problem structure, exactly what a
// schedule.Solver caches: task starts, the LSD baseline and the path
// candidates.
type structure struct {
	built  *schedroute.Built
	starts []float64
	lsd    *schedule.PathAssignment
	cands  *schedule.Candidates
}

// rebuilt is the outcome of one stage-by-stage solve.
type rebuilt struct {
	// res carries the same fields Solver.Solve fills (except Stats and
	// Trace), so the wire result constructors and Repair accept it.
	res *schedule.Result
}

// rebuiltSolve runs the Fig. 3 pipeline for one period through the
// schedule package's public stage functions, in Solver.Solve's order,
// with default options (one attempt, auto interval engine):
//
//	PipelinedStart + ComputeWindowsFromStarts + BuildIntervals +
//	BuildActivity → FaultRouteAssignment → BuildCandidatesFault →
//	AssignPaths → MaximalSubsets → AllocateIntervals →
//	ScheduleIntervals → BuildOmega → Omega.Validate → EncodeOmega
//
// Each stage is a span under parent and a per-layer total. With encode
// set, Ω is also encoded, as the -save artifact, into a byte counter.
func rebuiltSolve(lt *layerTimer, parent *trace.Span, st *structure, tauIn float64, seed int64, encode bool) (*rebuilt, error) {
	b := st.built
	g, tm, top, as := b.Graph, b.Timing, b.Topology, b.Assignment
	window := tm.TauC()
	sameNode := func(m tfg.Message) bool { return as.Node(m.Src) == as.Node(m.Dst) }
	var err error

	res := &schedule.Result{}
	out := &rebuilt{res: res}
	lt.time(parent, "time_bounds", "schedule.time_bounds_ms", "", func() {
		if st.starts == nil {
			st.starts = g.PipelinedStart(tm, window)
		}
		res.Windows, err = schedule.ComputeWindowsFromStarts(g, tm, tauIn, window, st.starts, sameNode)
		if err == nil {
			res.Intervals = schedule.BuildIntervals(res.Windows, tauIn)
			res.Activity = schedule.BuildActivity(res.Windows, res.Intervals)
		}
	})
	if err != nil {
		return nil, err
	}
	ws, act := res.Windows, res.Activity
	res.Latency = g.LatencyOf(tm, st.starts)

	var lsd *schedule.PathAssignment
	lt.time(parent, "lsd_baseline", "schedule.lsd_baseline_ms", "", func() {
		if st.lsd == nil {
			st.lsd, err = schedule.FaultRouteAssignment(g, top, as, ws, nil)
		}
		if err == nil {
			lsd = st.lsd.Clone()
			res.PeakLSD = schedule.ComputeUtilization(top, lsd, ws, act).Peak
		}
	})
	if err != nil {
		return nil, err
	}
	if st.cands == nil {
		lt.time(parent, "candidate_search", "topology.candidate_search_ms", "", func() {
			st.cands, err = schedule.BuildCandidatesFault(g, top, as, ws, defaultMaxPaths, nil)
		})
		if err != nil {
			return nil, err
		}
		for _, ps := range st.cands.PathsOf {
			lt.layers["topology.candidate_paths"] += float64(len(ps))
		}
	}

	lt.time(parent, "assign_paths", "schedule.assign_paths_ms", "", func() {
		ar := schedule.AssignPaths(lsd, st.cands, top, ws, act, seed, defaultMaxOuter, defaultMaxInner)
		lt.layers["schedule.assign_evals"] += float64(ar.Iterations)
		res.Assignment, res.Peak = ar.Assignment, ar.Util.Peak
		if res.Peak > res.PeakLSD {
			res.Assignment, res.Peak = lsd, res.PeakLSD
		}
	})
	lt.layers["schedule.attempts"]++
	pa := res.Assignment
	if res.Peak > 1+peakEps {
		res.FailStage = schedule.StageUtilization
		return out, nil
	}

	var subsets [][]tfg.MessageID
	lt.time(parent, "maximal_subsets", "schedule.maximal_subsets_ms", "", func() {
		subsets = schedule.MaximalSubsets(pa, ws, act)
	})
	lt.layers["schedule.subsets"] += float64(len(subsets))
	lt.time(parent, "interval_allocation", "lp.allocation_ms", "", func() {
		res.Allocation, err = schedule.AllocateIntervals(subsets, pa, ws, act)
	})
	var allocFail *schedule.ErrAllocationInfeasible
	if errors.As(err, &allocFail) {
		res.Allocation, res.FailStage = nil, schedule.StageAllocation
		return out, nil
	} else if err != nil {
		return nil, err
	}

	lt.time(parent, "interval_scheduling", "schedule.interval_scheduling_ms", "schedule.interval_scheduling_alloc_mb", func() {
		res.Slices, err = schedule.ScheduleIntervals(res.Allocation, pa, act, schedule.EngineAuto, 0)
	})
	var schedFail *schedule.ErrIntervalInfeasible
	if errors.As(err, &schedFail) {
		res.Allocation, res.Slices, res.FailStage = nil, nil, schedule.StageIntervalSchedule
		return out, nil
	} else if err != nil {
		return nil, err
	}
	lt.layers["schedule.slices"] += float64(len(res.Slices))

	var om *schedule.Omega
	lt.time(parent, "omega_build", "schedule.omega_build_ms", "schedule.omega_build_alloc_mb", func() {
		om = schedule.BuildOmega(res.Slices, pa, ws, top.Nodes(), tauIn, res.Latency)
		om.Starts = st.starts
	})
	lt.layers["schedule.omega_commands"] += float64(om.NumCommands())
	lt.time(parent, "omega_validate", "schedule.omega_validate_ms", "", func() {
		err = om.Validate(top)
	})
	if err != nil {
		return nil, fmt.Errorf("rebuilt Ω failed validation: %w", err)
	}
	res.Omega, res.Feasible, res.FailStage = om, true, schedule.StageOK
	if encode {
		// The encode writes into a byte counter, so the figure is
		// EncodeOmega's own cost and not that of hashing its output.
		var w countingWriter
		lt.time(parent, "omega_encode", "schedule.omega_encode_ms", "schedule.omega_encode_alloc_mb", func() {
			err = schedule.EncodeOmega(&w, om)
		})
		if err != nil {
			return nil, err
		}
		lt.layers["schedule.omega_encoded_mb"] += float64(w.n) / (1 << 20)
	}
	return out, nil
}

// hashOmega encodes Ω as the -save artifact and returns the encoding's
// sha256 and length.
func hashOmega(om *schedule.Omega) (sum [sha256.Size]byte, n int64, err error) {
	h := &countingHash{Hash: sha256.New()}
	if err := schedule.EncodeOmega(h, om); err != nil {
		return sum, 0, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, h.n, nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

type countingHash struct {
	hash.Hash
	n int64
}

func (c *countingHash) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.Hash.Write(p)
}
