package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// series maps each sample line of a Prometheus text exposition — the
// metric name with its label set, exactly as printed — to its value.
type series map[string]float64

// parseExposition reads srschedd's /metrics text; comments and blank
// lines are skipped.
func parseExposition(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after minus before for every series in after (a series
// absent before counts from 0).
func delta(before, after series) series {
	out := series{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the named metric whose label set contains
// all the given label="value" pairs.
func (s series) sum(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range s {
		base, lset, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lset, l) {
				match = false
				break
			}
		}
		if match {
			t += v
		}
	}
	return t
}

func scrapeMetrics(client *http.Client, base string) (series, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// serviceLayers derives the service per-layer metrics from a /metrics
// delta taken around the timed run.
func serviceLayers(d series, layers map[string]float64) {
	hits := d.sum("srschedd_solver_cache_hits_total")
	misses := d.sum("srschedd_solver_cache_misses_total")
	if hits+misses > 0 {
		layers["service.cache_hit_ratio"] = hits / (hits + misses)
	}
	layers["service.structure_builds"] = misses
	layers["service.coalesced"] = d.sum("srschedd_coalesced_requests_total")
	layers["service.shed"] = d.sum("srschedd_requests_total", `code="503"`)
	for _, st := range []string{"windows", "assign", "allocate", "schedule", "omega"} {
		layers["service.stage_s."+st] = d.sum("srschedd_solve_stage_seconds_total", `stage="`+st+`"`)
	}
}
