package dist

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/sim"
)

func TestRecordRoundTripJSONL(t *testing.T) {
	job := Job{ID: 7, Seed: 3, Spec: scenario.Classic()}
	res := sim.BatchResult{
		Scenario: "classic-exam",
		Title:    "Licensing exam",
		State:    fom.ScenarioState{Phase: fom.PhaseComplete, Score: 87.5, Elapsed: 401.2},
		Passed:   true,
		Wall:     1500 * time.Millisecond,
	}
	recs := []Record{
		NewRecord(job, res, "worker-1"),
		{Job: 8, Scenario: "blind-lift", Phase: "failed", Err: "boom"},
	}
	if recs[0].Phase != "complete" || !recs[0].Passed || recs[0].Seed != 3 {
		t.Fatalf("NewRecord = %+v", recs[0])
	}

	path := filepath.Join(t.TempDir(), "results.jsonl")
	if err := SaveRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, recs)
	}
}

func TestRecordFromError(t *testing.T) {
	rec := NewRecord(Job{ID: 1}, sim.BatchResult{
		Scenario: "x", Err: errors.New("build: no such node"),
	}, "w")
	if rec.Err != "build: no such node" || rec.Passed {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestStatsNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..100
	}
	s := statsOf(vals)
	if s.P50 != 50 || s.P90 != 90 || s.P99 != 99 {
		t.Errorf("percentiles over 1..100 = %+v", s)
	}
	one := statsOf([]float64{42})
	if one.P50 != 42 || one.P99 != 42 {
		t.Errorf("single sample = %+v", one)
	}
	if z := statsOf(nil); z != (Stats{}) {
		t.Errorf("empty = %+v", z)
	}
}

func TestBuildReportAndWrite(t *testing.T) {
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs,
			Record{Scenario: "a", Passed: true, Score: float64(80 + i), WallSec: 1},
			Record{Scenario: "b", Passed: i < 5, Score: float64(50 + i), WallSec: 2, Err: ""},
		)
	}
	rep := BuildReport(recs)
	if rep.Total.Runs != 20 || rep.Total.Passed != 15 {
		t.Fatalf("total = %+v", rep.Total)
	}
	if len(rep.Scenarios) != 2 || rep.Scenarios[0].Scenario != "a" || rep.Scenarios[1].Scenario != "b" {
		t.Fatalf("scenarios = %+v", rep.Scenarios)
	}
	if got := rep.Scenarios[1].PassRate(); got != 0.5 {
		t.Errorf("b pass rate = %v", got)
	}
	if rep.Scenarios[0].Score.P50 != 84 {
		t.Errorf("a p50 = %v", rep.Scenarios[0].Score.P50)
	}

	var sb strings.Builder
	WriteReport(&sb, rep)
	out := sb.String()
	for _, want := range []string{"SCENARIO", "TOTAL", "a", "b", "75%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportWallMillis pins the wall column's resolution: headless runs
// take a few milliseconds, which a seconds column rounds to 0.0.
func TestReportWallMillis(t *testing.T) {
	rec := NewRecord(Job{ID: 1}, sim.BatchResult{Scenario: "a", Wall: 3 * time.Millisecond}, "w")
	if rec.WallSec != 0.003 {
		t.Fatalf("WallSec = %v, want 0.003", rec.WallSec)
	}
	var sb strings.Builder
	WriteReport(&sb, BuildReport([]Record{rec}))
	out := sb.String()
	if !strings.Contains(out, "WALL-MS") || !strings.Contains(out, "3.0/    3.0/    3.0") {
		t.Errorf("3 ms run not rendered in milliseconds:\n%s", out)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := []Record{
		{Scenario: "a", Passed: true, Score: 90},
		{Scenario: "a", Passed: true, Score: 92},
		{Scenario: "b", Passed: true, Score: 88},
		{Scenario: "gone", Passed: true, Score: 70},
	}
	cur := []Record{
		{Scenario: "a", Passed: true, Score: 91},
		{Scenario: "a", Passed: false, Score: 30, Err: "tip-over"}, // pass-rate drop
		{Scenario: "b", Passed: true, Score: 70},                   // score drop > tolerance
		{Scenario: "new", Passed: false, Score: 0},                 // not in old: skipped
	}
	regs := Compare(old, cur)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v", regs)
	}
	if regs[0].Scenario != "a" || !strings.Contains(regs[0].Reason, "pass rate") {
		t.Errorf("regs[0] = %+v", regs[0])
	}
	if regs[1].Scenario != "b" || !strings.Contains(regs[1].Reason, "p50 score") {
		t.Errorf("regs[1] = %+v", regs[1])
	}

	var sb strings.Builder
	if n := WriteCompare(&sb, old, cur); n != 2 {
		t.Errorf("WriteCompare = %d:\n%s", n, sb.String())
	}
	if n := WriteCompare(&sb, old, old); n != 0 {
		t.Errorf("self-compare regressed: %d", n)
	}
}

func TestJobsFor(t *testing.T) {
	specs := []scenario.Spec{scenario.Classic(), scenario.BlindLift()}
	jobs := JobsFor(specs, 3)
	if len(jobs) != 6 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != int64(i) {
			t.Errorf("job %d: ID %d", i, j.ID)
		}
		if want := int64(i/2 + 1); j.Seed != want {
			t.Errorf("job %d: seed %d, want %d", i, j.Seed, want)
		}
		if j.Spec.Name != specs[i%2].Name {
			t.Errorf("job %d: spec %s", i, j.Spec.Name)
		}
	}
}
