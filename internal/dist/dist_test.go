package dist

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"codsim/cod"
	"codsim/internal/scenario"
	"codsim/internal/sim"
	"codsim/internal/transport"
)

// fastTimers keeps discovery and liveness snappy for in-process tests.
func fastTimers() cod.Option {
	return cod.WithTimers(5*time.Millisecond, 30*time.Millisecond, 10*time.Millisecond)
}

// fastCoordinator shortens every failure-detection knob for tests.
func fastCoordinator() CoordinatorConfig {
	return CoordinatorConfig{
		Sweep:       42,
		Announce:    15 * time.Millisecond,
		DeadAfter:   250 * time.Millisecond,
		JobTimeout:  10 * time.Second,
		MaxAttempts: 3,
	}
}

// stubRunner returns an instantly-passing record, optionally delayed.
func stubRunner(delay time.Duration) Runner {
	return func(ctx context.Context, job Job, _ sim.BatchConfig) Record {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
			}
		}
		return Record{
			Scenario: job.Spec.Name,
			Seed:     job.Seed,
			Passed:   true,
			Score:    100,
			Phase:    "complete",
		}
	}
}

// testJobs builds n jobs cycling through two cheap library specs.
func testJobs(n int) []Job {
	specs := []scenario.Spec{scenario.Classic(), scenario.BlindLift()}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: int64(i), Seed: int64(i%3 + 1), Spec: specs[i%2]}
	}
	return jobs
}

// startWorker spawns a worker on its own node and returns a stop func.
func startWorker(t *testing.T, fed *cod.Federation, name string, cfg WorkerConfig) context.CancelFunc {
	t.Helper()
	node, err := fed.Node(name + "-node")
	if err != nil {
		t.Fatalf("worker node %s: %v", name, err)
	}
	cfg.Name = name
	w, err := NewWorker(node, cfg)
	if err != nil {
		t.Fatalf("worker %s: %v", name, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(ctx)
		_ = w.Close()
	}()
	t.Cleanup(func() { cancel(); wg.Wait() })
	return cancel
}

// TestCoordinatorWorkersMemLAN is the dist smoke: a coordinator and two
// in-process workers on one MemLAN run a 12-job sweep to completion.
func TestCoordinatorWorkersMemLAN(t *testing.T) {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), fastTimers())
	defer fed.Close()

	wcfg := WorkerConfig{
		Slots:     2,
		Heartbeat: 25 * time.Millisecond,
		Run:       stubRunner(5 * time.Millisecond),
	}
	startWorker(t, fed, "w1", wcfg)
	startWorker(t, fed, "w2", wcfg)

	cnode, err := fed.Node("coord-node")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(cnode, fastCoordinator())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitWorkers(ctx, []string{"w1", "w2"}); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}

	jobs := testJobs(12)
	recs, err := coord.RunStream(ctx, SliceJobs(jobs))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != 12 {
		t.Fatalf("records = %d, want 12", len(recs))
	}
	workers := map[string]int{}
	for i, r := range recs {
		if r.Job != int64(i) {
			t.Errorf("record %d: job %d (records must come back sorted)", i, r.Job)
		}
		if !r.Passed || r.Err != "" {
			t.Errorf("job %d: passed=%v err=%q", r.Job, r.Passed, r.Err)
		}
		if r.Scenario != jobs[i].Spec.Name || r.Seed != jobs[i].Seed {
			t.Errorf("job %d: scenario %s seed %d, want %s/%d",
				r.Job, r.Scenario, r.Seed, jobs[i].Spec.Name, jobs[i].Seed)
		}
		workers[r.Worker]++
	}
	for w := range workers {
		if w != "w1" && w != "w2" {
			t.Errorf("record from unknown worker %q", w)
		}
	}
}

// TestRedispatchOnWorkerDeath kills one of two workers mid-sweep — its
// runner never finishes — and asserts its granted jobs are re-dispatched
// to the survivor so the final report is complete.
func TestRedispatchOnWorkerDeath(t *testing.T) {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), fastTimers())
	defer fed.Close()

	// The victim's runner blocks until the worker dies, so every job it
	// is granted is only recoverable through re-dispatch.
	victimStarted := make(chan int64, 16)
	victimRun := func(ctx context.Context, job Job, _ sim.BatchConfig) Record {
		victimStarted <- job.ID
		<-ctx.Done()
		return Record{Scenario: job.Spec.Name}
	}
	killVictim := startWorker(t, fed, "victim", WorkerConfig{
		Slots:     2,
		Heartbeat: 25 * time.Millisecond,
		Run:       victimRun,
	})
	startWorker(t, fed, "survivor", WorkerConfig{
		Slots:     2,
		Heartbeat: 25 * time.Millisecond,
		Run:       stubRunner(20 * time.Millisecond),
	})

	cnode, err := fed.Node("coord-node")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(cnode, fastCoordinator())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitWorkers(ctx, []string{"victim", "survivor"}); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}

	// Kill the victim as soon as it has been granted its first job.
	go func() {
		select {
		case <-victimStarted:
			killVictim()
		case <-ctx.Done():
		}
	}()

	recs, err := coord.RunStream(ctx, SliceJobs(testJobs(12)))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != 12 {
		t.Fatalf("records = %d, want 12 (report must be complete)", len(recs))
	}
	redispatched := 0
	for _, r := range recs {
		if !r.Passed || r.Err != "" {
			t.Errorf("job %d: passed=%v err=%q worker=%s", r.Job, r.Passed, r.Err, r.Worker)
		}
		if r.Worker != "survivor" {
			t.Errorf("job %d: worker %q, want survivor (victim can never finish)", r.Job, r.Worker)
		}
		if r.Attempt > 1 {
			redispatched++
		}
	}
	if redispatched == 0 {
		t.Error("no job carries attempt > 1: the victim's grants were not re-dispatched")
	}
}

// TestUDPLANSweepMatchesLocal is the acceptance sweep: the whole library
// × 5 repeats of headless jobs sharded across two workers over a real
// UDPLAN loopback segment, with each participant attaching through its
// own UDPLAN instance exactly like separate OS processes would. The dist
// verdicts must match a local sim.RunBatch of the same specs, and the
// persisted JSONL must aggregate into a complete report.
func TestUDPLANSweepMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-library headless scenario sweep")
	}
	const (
		host  = "127.0.0.1"
		slots = 8
	)
	base, err := transport.FreeUDPSegment(host, slots)
	if err != nil {
		t.Fatal(err)
	}
	segment := func() transport.LAN {
		lan, err := transport.NewUDPLAN(host, base, slots)
		if err != nil {
			t.Fatal(err)
		}
		return lan
	}

	batch := sim.BatchConfig{Headless: true}
	wcfg := WorkerConfig{
		Slots:     3,
		Heartbeat: 50 * time.Millisecond,
		Batch:     batch, // DefaultRunner: the real headless simulator
	}
	// Discovery stays fast but link-death detection gets real margins:
	// with six concurrent sims starving the scheduler, the MemLAN-test
	// timers' 40 ms heartbeat timeout would churn links constantly.
	timers := cod.WithTimers(10*time.Millisecond, 50*time.Millisecond, 100*time.Millisecond)
	for _, name := range []string{"w1", "w2"} {
		node, err := cod.NewNode(name+"-node", cod.WithLAN(segment()), timers)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		cfg := wcfg
		cfg.Name = name
		w, err := NewWorker(node, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
			_ = w.Close()
		}()
		defer func() { cancel(); wg.Wait() }()
	}

	cnode, err := cod.NewNode("coord-node", cod.WithLAN(segment()), timers)
	if err != nil {
		t.Fatal(err)
	}
	defer cnode.Close()
	// Wide failure-detection margins: under the race detector six
	// concurrent headless sims starve the worker loops, and a spurious
	// death verdict here would burn attempts on perfectly live workers.
	ccfg := fastCoordinator()
	ccfg.DeadAfter = 5 * time.Second
	ccfg.JobTimeout = 30 * time.Second
	ccfg.MaxAttempts = 5
	coord, err := NewCoordinator(cnode, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := coord.WaitWorkers(ctx, []string{"w1", "w2"}); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}

	jobs := JobsFor(scenario.Library(), 5)
	want := len(scenario.Library()) * 5
	if len(jobs) != want {
		t.Fatalf("jobs = %d, want %d", len(jobs), want)
	}
	recs, err := coord.RunStream(ctx, SliceJobs(jobs))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != want {
		t.Fatalf("records = %d, want %d", len(recs), want)
	}

	// The same specs locally, through the same headless path.
	local := sim.RunBatch(ctx, scenario.Library(), batch)
	verdict := make(map[string]bool, len(local))
	for _, r := range local {
		verdict[r.Scenario] = r.Passed
	}
	workers := map[string]int{}
	for _, r := range recs {
		want, known := verdict[r.Scenario]
		if !known {
			t.Errorf("job %d: unknown scenario %q", r.Job, r.Scenario)
			continue
		}
		if r.Passed != want {
			t.Errorf("job %d (%s, seed %d): dist passed=%v, local=%v",
				r.Job, r.Scenario, r.Seed, r.Passed, want)
		}
		workers[r.Worker]++
	}
	if len(workers) < 2 {
		t.Errorf("sweep was not sharded: all records from %v", workers)
	}

	// Persist and aggregate, end to end.
	path := t.TempDir() + "/results.jsonl"
	if err := SaveRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(loaded)
	if rep.Total.Runs != want || len(rep.Scenarios) != len(scenario.Library()) {
		t.Fatalf("report: %d runs, %d scenarios", rep.Total.Runs, len(rep.Scenarios))
	}
	for _, g := range rep.Scenarios {
		if g.Runs != 5 {
			t.Errorf("%s: %d runs, want 5", g.Scenario, g.Runs)
		}
	}
	var sb strings.Builder
	WriteReport(&sb, rep)
	if !strings.Contains(sb.String(), "TOTAL") {
		t.Errorf("report:\n%s", sb.String())
	}
	t.Logf("\n%s", sb.String())
}

// TestCoordinatorGivesUpAfterMaxAttempts pins the synthetic-failure path:
// with only a black-hole worker on the segment, every job must come back
// as a failed record instead of hanging the sweep.
func TestCoordinatorGivesUpAfterMaxAttempts(t *testing.T) {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), fastTimers())
	defer fed.Close()

	// Claims and heartbeats flow, but no result ever comes back.
	blackhole := func(ctx context.Context, job Job, _ sim.BatchConfig) Record {
		<-ctx.Done()
		return Record{}
	}
	startWorker(t, fed, "blackhole", WorkerConfig{
		Slots:     4,
		Heartbeat: 25 * time.Millisecond,
		Run:       blackhole,
	})

	cnode, err := fed.Node("coord-node")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := fastCoordinator()
	ccfg.JobTimeout = 150 * time.Millisecond
	ccfg.MaxAttempts = 2
	coord, err := NewCoordinator(cnode, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitWorkers(ctx, []string{"blackhole"}); err != nil {
		t.Fatal(err)
	}
	recs, err := coord.RunStream(ctx, SliceJobs(testJobs(3)))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for _, r := range recs {
		if r.Passed || !strings.Contains(r.Err, "gave up") {
			t.Errorf("job %d: %+v, want a gave-up failure", r.Job, r)
		}
	}
}

// TestCoordinatorRunCancel returns partial records and ctx.Err on cancel.
func TestCoordinatorRunCancel(t *testing.T) {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), fastTimers())
	defer fed.Close()

	cnode, err := fed.Node("coord-node")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(cnode, fastCoordinator())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	recs, err := coord.RunStream(ctx, SliceJobs(testJobs(2))) // no workers: nothing completes
	if err == nil {
		t.Fatal("Run returned nil error with no workers")
	}
	if len(recs) != 0 {
		t.Errorf("records = %+v, want none", recs)
	}
}

// TestWorkerSurvivesCoordinatorRestart runs two sweeps against the same
// standing worker pool — the second coordinator has a new sweep ID and
// reuses job IDs, which must not collide with the first sweep's state.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), fastTimers())
	defer fed.Close()

	startWorker(t, fed, "w1", WorkerConfig{
		Slots:     2,
		Heartbeat: 25 * time.Millisecond,
		Run:       stubRunner(time.Millisecond),
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for sweep := int64(1); sweep <= 2; sweep++ {
		cnode, err := fed.Node(fmt.Sprintf("coord-%d", sweep))
		if err != nil {
			t.Fatal(err)
		}
		ccfg := fastCoordinator()
		ccfg.Sweep = sweep
		coord, err := NewCoordinator(cnode, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.WaitWorkers(ctx, []string{"w1"}); err != nil {
			t.Fatalf("sweep %d: WaitWorkers: %v", sweep, err)
		}
		recs, err := coord.RunStream(ctx, SliceJobs(testJobs(4)))
		if err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
		if len(recs) != 4 {
			t.Fatalf("sweep %d: records = %d", sweep, len(recs))
		}
		for _, r := range recs {
			if !r.Passed {
				t.Errorf("sweep %d job %d: %+v", sweep, r.Job, r)
			}
		}
		_ = coord.Close()
		_ = cnode.Close()
	}
}
