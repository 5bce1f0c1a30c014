// Command perfbench is codsim's end-to-end benchmark. It runs one workload
// for a fixed measuring time, checks the program's outputs, and prints
// every metric by name with its unit; the last line of its standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.11, "unit": "s"}, ...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload fed-exam|campaign|dist-sweep \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end metrics, measured with no
// benchmark instrumentation attached. With --trace 1 the run measures the
// workload twice, untraced and then traced, for half the time each: the
// traced half attaches the benchmark's probes and timers, keeps every span
// in memory and writes them as JSON lines under --spans-dir when it ends,
// and the metrics are the per-layer metrics. The difference between the
// two halves' end-to-end figures is printed as the tracing overhead.
//
// The benchmark drives codsim's layers only through their public
// functions (sim, gen, dist, trace, cod) and wraps their injection points
// with its own timers; it changes no program code. The exit code is 0
// only when every output check passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is one measured pass of a workload.
type env struct {
	seed   int64
	budget time.Duration // keep starting rounds until this much was measured
	tr     *tracer       // nil: untraced
	log    io.Writer     // per-round progress lines
}

// workload is one benchmark input family.
type workload struct {
	name string
	run  func(ctx context.Context, e env) (*result, error)
}

// workloads are the runnable workloads. BENCHMARK.json measures fed-exam
// and campaign; dist-sweep stays runnable for its per-layer view of dist
// over real sockets, but its throughput swung by more than its bound
// between runs on a shared two-vCPU machine, so it is not in the measured
// set (see README.md).
var workloads = []workload{
	{"fed-exam", runFedExam},
	{"campaign", runCampaign},
	{"dist-sweep", runSweep},
}

// result is what one pass of a workload measured.
type result struct {
	attempted, failed int
	problems          []string           // failed output checks
	e2e               map[string]float64 // end-to-end metrics by name
	layer             map[string]float64 // per-layer metrics (traced passes)
	timings           map[string]timing  // per-layer timing summaries, for the report
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, timings: map[string]timing{}}
}

// problem records a failed output check.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// timing records a per-layer timing sample as <name>_p50 and <name>_tail.
func (r *result) timing(name string, vals []float64) {
	t := summarize(vals)
	r.timings[name] = t
	r.layer[name+"_p50"] = t.P50
	r.layer[name+"_tail"] = t.Tail
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured untraced on
// every workload; BENCHMARK.json gives their direction and bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_s_per_s", "sim-s/s"},
	{"jobs_per_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
}

// perLayer are the traced run's metrics, named <module>.<metric>. A layer
// a workload never calls reports 0.
var perLayer = []metricDef{
	{"render.frame_ms_p50", "ms"},
	{"render.frame_ms_tail", "ms"},
	{"render.frames", "count"},
	{"render.self_s", "s"},
	{"displaysync.wait_ms_p50", "ms"},
	{"displaysync.wait_ms_tail", "ms"},
	{"displaysync.swaps", "count"},
	{"displaysync.evicted", "count"},
	{"displaysync.fps", "frames/s"},
	{"displaysync.self_s", "s"},
	{"lp.pace", "ratio"},
	{"lp.slip_s", "s"},
	{"cb.updates_sent", "count"},
	{"cb.reflects_delivered", "count"},
	{"cb.conflations", "count"},
	{"cb.dropped", "count"},
	{"cb.credit_stalls", "count"},
	{"cb.delivered_ratio", "ratio"},
	{"cb.probe_ms_p50", "ms"},
	{"cb.probe_ms_tail", "ms"},
	{"cb.probes", "count"},
	{"cb.probe_late_ms_tail", "ms"},
	{"cb.self_s", "s"},
	{"dist.queue_ms_p50", "ms"},
	{"dist.queue_ms_tail", "ms"},
	{"dist.dispatch_ms_p50", "ms"},
	{"dist.dispatch_ms_tail", "ms"},
	{"dist.records", "count"},
	{"dist.redispatches", "count"},
	{"dist.worker_busy_share", "ratio"},
	{"dist.source_wait_s", "s"},
	{"dist.self_s", "s"},
	{"gen.candidates", "count"},
	{"gen.static_rejects", "count"},
	{"gen.oracle_rejects", "count"},
	{"gen.cache_hits", "count"},
	{"gen.yield", "ratio"},
	{"gen.oracle_ms_p50", "ms"},
	{"gen.oracle_ms_tail", "ms"},
	{"gen.oracle_runs", "count"},
	{"gen.self_s", "s"},
	{"trace.run_ms_p50", "ms"},
	{"trace.run_ms_tail", "ms"},
	{"trace.runs", "count"},
	{"trace.sim_s_per_s", "sim-s/s"},
	{"trace.self_s", "s"},
	{"sim.boot_ms", "ms"},
	{"sim.exam_wall_s", "s"},
	{"sim.score", "points"},
	{"sim.alarms", "count"},
	{"sim.score_gap", "points"},
	{"sim.self_s", "s"},
}

// runTimeout bounds a whole invocation, well inside the 180 s a run may
// take.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the report; it returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fed-exam, campaign or dist-sweep")
	seed := fs.Int64("seed", 1, "workload seed: every input is derived from it")
	seconds := fs.Float64("seconds", 10, "measuring time; whole rounds run until it is reached")
	traced := fs.Int("trace", 0, "1: traced run that reports per-layer metrics")
	spansDir := fs.String("spans-dir", ".bench_build/perfbench", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fed-exam|campaign|dist-sweep, --seconds > 0, --trace 0|1\n")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()

	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %v measuring, trace %d, GOMAXPROCS %d\n",
		wl.name, *seed, budget, *traced, runtime.GOMAXPROCS(0))
	if *traced == 0 {
		res, err := wl.run(ctx, env{seed: *seed, budget: budget, log: stdout})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		report(stdout, "untraced", res)
		return emit(stdout, stderr, res, res.e2e, endToEnd)
	}

	base, err := wl.run(ctx, env{seed: *seed, budget: budget / 2, log: stdout})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	report(stdout, "untraced", base)
	tr := newTracer()
	res, err := wl.run(ctx, env{seed: *seed, budget: budget / 2, tr: tr, log: stdout})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", wl.name, err)
		return 1
	}
	report(stdout, "traced", res)
	fmt.Fprintln(stdout, "tracing overhead (traced vs untraced half):")
	for _, m := range endToEnd {
		a, b := base.e2e[m.name], res.e2e[m.name]
		fmt.Fprintf(stdout, "  %-16s %12.4f -> %12.4f %s  (%+.1f%%)\n", m.name, a, b, m.unit, 100*ratio(b-a, a))
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(stdout, "self time by layer (%d spans):\n", len(spans))
	for _, l := range layers {
		fmt.Fprintf(stdout, "  %-12s %10.3f s\n", l, self[l].Seconds())
		res.layer[l+".self_s"] = self[l].Seconds()
	}
	path, err := writeSpans(*spansDir, wl.name, *seed, spans)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "spans written to %s\n", path)

	merged := *res
	merged.attempted += base.attempted
	merged.failed += base.failed
	merged.problems = append(append([]string(nil), base.problems...), res.problems...)
	return emit(stdout, stderr, &merged, res.layer, perLayer)
}

// report prints a pass's human-readable summary.
func report(w io.Writer, label string, r *result) {
	fmt.Fprintf(w, "%s pass: %d operations, %d failed\n", label, r.attempted, r.failed)
	for _, m := range endToEnd {
		if v, ok := r.e2e[m.name]; ok {
			fmt.Fprintf(w, "  %-16s %12.4f %s\n", m.name, v, m.unit)
		}
	}
	fmt.Fprintf(w, "  %-16s %12.4f\n", "fail_ratio", ratio(float64(r.failed), float64(r.attempted)))
	names := make([]string, 0, len(r.timings))
	for n := range r.timings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %s\n", n, r.timings[n])
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// emit prints the result line with the listed metrics (absent ones read
// 0) and returns the exit code: nonzero when an output check failed.
func emit(w, errw io.Writer, r *result, vals map[string]float64, defs []metricDef) int {
	out := resultJSON{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, m := range defs {
		out.Metrics[m.name] = metricJSON{Value: vals[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !out.Correct {
		fmt.Fprintf(errw, "perfbench: output checks failed: %s\n", strings.Join(r.problems, "; "))
		return 1
	}
	return 0
}

// rounds runs round(i) for i = 0, 1, ... until the measured time reaches
// budget, always at least once. round returns how much of its time counts
// as measured; a round error aborts the pass.
func rounds(ctx context.Context, budget time.Duration, round func(i int) (time.Duration, error)) error {
	var measured time.Duration
	for i := 0; i == 0 || measured < budget; i++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		d, err := round(i)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		measured += d
	}
	return nil
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
