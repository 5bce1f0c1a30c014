package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func span(name string, id, parent int64, start, end time.Duration) Span {
	return Span{Name: name, ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	const ms = time.Millisecond
	spans := []Span{
		span("dist.stream", 1, 0, 0, 10*ms),
		// Overlapping children cover [1, 5) once, not 2 + 3 ms.
		span("trace.run", 2, 1, 1*ms, 3*ms),
		span("trace.run", 3, 1, 2*ms, 5*ms),
		// A child running past its parent's end subtracts only [8, 10).
		span("gen.oracle", 4, 1, 8*ms, 12*ms),
		// A grandchild is subtracted from its own parent only.
		span("sim.boot", 5, 3, 3*ms, 4*ms),
		// A root span without children is all self time.
		span("cb.probe", 6, 0, 20*ms, 21*ms),
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"dist":  10*ms - 4*ms - 2*ms,
		"trace": 2*ms + (3*ms - 1*ms),
		"gen":   4 * ms,
		"sim":   1 * ms,
		"cb":    1 * ms,
	}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	d := summarize(vals)
	// The 90th value has exactly ten samples (91..100) beyond it.
	if d.N != 100 || d.P50 != 50.5 || d.Tail != 90 || d.TailPct != 90 {
		t.Fatalf("summarize(1..100) = %+v", d)
	}
	small := summarize([]float64{3, 1, 2})
	if small.Tail != 3 || small.TailPct != 100 || small.P50 != 2 {
		t.Fatalf("summarize(1..3) = %+v", small)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload at minimal length, once untraced and once
// traced, and checks that the result line names every metric
// BENCHMARK.json defines, with its unit. dist-sweep runs too, although
// BENCHMARK.json leaves it out of the measured set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("flies whole exams and campaigns")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, want := range bench.Workloads {
		found := false
		for _, wl := range workloads {
			found = found || wl.name == want.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json workload %s does not exist", want.Name)
		}
	}
	for _, wl := range workloads {
		for _, traced := range []string{"0", "1"} {
			defs := bench.EndToEnd
			if traced == "1" {
				defs = bench.PerLayer
			}
			t.Run(wl.name+"/trace"+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", wl.name, "--seed", "7", "--seconds", "0.001",
					"--trace", traced, "--spans-dir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultJSON
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, BENCHMARK.json defines %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}
