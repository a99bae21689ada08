package schedroute

import (
	"reflect"
	"testing"

	"schedroute/internal/schedule"
)

// wireAliases maps a wire Options field to the schedule.Options field it
// drives when the names differ: `"stats": true` is the documented alias
// of `"collect_stats": true`.
var wireAliases = map[string]string{"Stats": "CollectStats"}

// solverOnlyFields are the schedule.Options fields with no wire
// spelling: the service owns worker counts, tenant link shares and
// tracing.
var solverOnlyFields = map[string]bool{"Procs": true, "LinkCap": true, "Trace": true}

// TestWireOptionsMapToSolverOptions is the drift contract between the
// wire Options and schedule.Options: every wire field names a solver
// field (directly or through wireAliases), and every solver field is
// reached from the wire exactly once per spelling unless it is declared
// solver-only. A field added or renamed on one side only fails here.
func TestWireOptionsMapToSolverOptions(t *testing.T) {
	solver := reflect.TypeOf(schedule.Options{})
	for name := range solverOnlyFields {
		if _, ok := solver.FieldByName(name); !ok {
			t.Errorf("solver-only field %s is not a schedule.Options field", name)
		}
	}
	reached := map[string]int{}
	wire := reflect.TypeOf(Options{})
	for i := 0; i < wire.NumField(); i++ {
		name := wire.Field(i).Name
		target := name
		if alias, ok := wireAliases[name]; ok {
			target = alias
		}
		if _, ok := solver.FieldByName(target); !ok {
			t.Errorf("wire Options field %s has no schedule.Options field %s", name, target)
			continue
		}
		reached[target]++
	}
	for i := 0; i < solver.NumField(); i++ {
		name := solver.Field(i).Name
		want := 1
		if solverOnlyFields[name] {
			want = 0
		}
		for _, target := range wireAliases {
			if target == name {
				want++
			}
		}
		if reached[name] != want {
			t.Errorf("schedule.Options field %s reached by %d wire fields, want %d", name, reached[name], want)
		}
	}
}

// TestToScheduleMatchesFunctionalOptions pins that the wire resolver
// sets every wire-reachable solver field to the requested value.
func TestToScheduleMatchesFunctionalOptions(t *testing.T) {
	wire := Options{
		Seed: 7, MaxPaths: 9, MaxOuter: 2, MaxInner: 30, Engine: "exact",
		Window: 120, LSDOnly: true, SyncMargin: 0.5, Retries: 3,
		AllowSharedNodes: true, Stats: true,
	}
	got, err := wire.ToSchedule()
	if err != nil {
		t.Fatal(err)
	}
	want := schedule.Options{
		Seed: 7, MaxPaths: 9, MaxOuter: 2, MaxInner: 30, Engine: schedule.EngineExact,
		Window: 120, LSDOnly: true, SyncMargin: 0.5, Retries: 3,
		AllowSharedNodes: true, CollectStats: true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wire resolution diverged:\n got %+v\nwant %+v", got, want)
	}
}
