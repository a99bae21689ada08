package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"schedroute/internal/errkind"
	"schedroute/internal/parallel"
	"schedroute/pkg/schedroute"
)

// maxBatchItems bounds one /v1/schedule:batch request; beyond it the
// client should split, not the server buffer.
const maxBatchItems = 1024

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req schedroute.BatchScheduleRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err, nil)
		return
	}
	if err := schedroute.CheckSchemaVersion(req.SchemaVersion); err != nil {
		s.writeError(w, err, nil)
		return
	}
	if len(req.Items) == 0 || len(req.Items) > maxBatchItems {
		s.writeError(w, errkind.Mark(
			fmt.Errorf("batch: %d items out of range [1,%d]", len(req.Items), maxBatchItems),
			errkind.ErrBadInput), nil)
		return
	}
	if err := s.admit(r.Context()); err != nil {
		s.writeError(w, err, nil)
		return
	}
	defer s.release()
	writeJSON(w, s.batch(r.Context(), req))
}

// batchGroup is one unique sub-request: items with identical problem,
// options, and omega flag share a single solve and a single encoded
// result object.
type batchGroup struct {
	req   schedroute.ScheduleRequest
	items []int // indices into the request's Items
	out   *schedroute.ScheduleResult
	err   error
}

// batch runs the grouped fan-out. Items are grouped by their full
// sub-request identity (tenant + StructureKey + period + options +
// omega flag); the solver cache underneath guarantees one structure
// build per distinct StructureKey, and the grouping guarantees one
// solve per identical sub-request, however large the batch. The tenant
// belongs in the key because an admitted tenant's item is answered
// from its admitted standing, not a fresh solve — two tenants naming
// the same problem must not share one result object. Unique groups run
// in parallel on borrowed idle worker slots, the same discipline as
// the sweep, and the whole response is encoded in one pass at the end.
func (s *Server) batch(ctx context.Context, req schedroute.BatchScheduleRequest) *schedroute.BatchScheduleResult {
	groups := make([]*batchGroup, 0, len(req.Items))
	index := map[string]*batchGroup{}
	for i, item := range req.Items {
		ob, _ := json.Marshal(item.Options)
		ten := schedroute.TenantOrDefault(item.Tenant)
		gk := fmt.Sprintf("tenant=%s/%d/%g|%s|tauin=%g|omega=%t|opts=%s",
			ten.ID, ten.Priority, ten.RateGuarantee,
			item.Problem.StructureKey(), item.Problem.TauIn, item.IncludeOmega, ob)
		g := index[gk]
		if g == nil {
			g = &batchGroup{req: item}
			index[gk] = g
			groups = append(groups, g)
		}
		g.items = append(g.items, i)
	}

	extra, releaseExtra := s.claimExtraWorkers(s.cfg.Workers - 1)
	ferr := parallel.ForEach(ctx, len(groups), 1+extra, func(gi int) error {
		g := groups[gi]
		// Tenant-scoped items follow the same path as a standalone
		// /v1/schedule: an admitted tenant's item is served from its
		// admitted standing.
		if ent, err := s.tenantFor(g.req.Tenant, g.req.Problem); err != nil {
			g.err = err
			return nil
		} else if ent != nil {
			g.out, g.err = s.tenantSchedule(ent, g.req.IncludeOmega, g.req.Options.WantStats())
			return nil
		}
		sv, err := s.solve(ctx, g.req.Problem, g.req.Options, nil)
		if err != nil {
			g.err = err
			return nil // per-item isolation: siblings keep running
		}
		out, err := schedroute.NewScheduleResult(sv.built, sv.res, sv.tauIn, g.req.IncludeOmega, g.req.Options.WantStats())
		if err != nil {
			g.err = err
			return nil
		}
		g.out = out
		return nil
	})

	items := make([]schedroute.BatchItemResult, len(req.Items))
	for _, g := range groups {
		err := g.err
		if err == nil && g.out == nil {
			// The fan-out itself stopped (context canceled) before this
			// group ran; report the capacity condition, not silence.
			err = ferr
			if err == nil {
				err = errors.New("batch: group not executed")
			}
		}
		if err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			err = errkind.Mark(err, errkind.ErrUnavailable)
		}
		for _, i := range g.items {
			items[i] = schedroute.BatchItemResult{Index: i, Result: g.out}
			if err != nil {
				items[i].Result = nil
				items[i].SetError(err)
			}
		}
	}
	releaseExtra()
	s.metrics.batchItems.Add(int64(len(req.Items)))
	return &schedroute.BatchScheduleResult{SchemaVersion: schedroute.SchemaVersion, Items: items}
}
