package dist

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"codsim/cod"
	"codsim/internal/obs"
)

// TestObsLiveSweepScrape drives a full MemLAN sweep with the telemetry
// plane attached and scrapes /metrics concurrently the whole time — under
// -race this doubles as the data-race check on the sampler, the span
// recorder, and the Sample() snapshots. Afterwards it asserts the core
// series the CI smoke greps for, and that every record came home with a
// span and phase latencies.
func TestObsLiveSweepScrape(t *testing.T) {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), fastTimers())
	defer fed.Close()

	reg := obs.NewRegistry()
	spans := obs.NewSpans(reg)
	sampler := obs.NewSampler(reg, 5*time.Millisecond)
	server := obs.NewServer(reg)

	wnode, err := fed.Node("w1-node")
	if err != nil {
		t.Fatal(err)
	}
	worker, err := NewWorker(wnode, WorkerConfig{
		Name:      "w1",
		Slots:     2,
		Heartbeat: 25 * time.Millisecond,
		Run:       stubRunner(5 * time.Millisecond),
		Spans:     spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, stopWorker := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = worker.Run(wctx)
		_ = worker.Close()
	}()
	defer wg.Wait()
	defer stopWorker()

	cnode, err := fed.Node("coord-node")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := fastCoordinator()
	ccfg.Spans = spans
	coord, err := NewCoordinator(cnode, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	sampler.AddNode("w1-node", wnode)
	sampler.AddNode("coord-node", cnode)
	sampler.AddDispatch(worker.Sample)
	sampler.AddDispatch(coord.Sample)
	server.AddNode("w1-node", wnode)
	sampler.Start()
	defer sampler.Stop()

	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	scrape := func() string {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Errorf("scrape: %v", err)
			return ""
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := io.Copy(&b, resp.Body); err != nil {
			t.Errorf("scrape read: %v", err)
		}
		return b.String()
	}

	// Hammer /metrics (and /debug/tablez) while the sweep runs.
	scrapeCtx, stopScrapes := context.WithCancel(context.Background())
	var scrapers sync.WaitGroup
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for scrapeCtx.Err() == nil {
			scrape()
			resp, err := ts.Client().Get(ts.URL + "/debug/tablez")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitWorkers(ctx, []string{"w1"}); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}
	recs, err := coord.RunStream(ctx, SliceJobs(testJobs(8)))
	stopScrapes()
	scrapers.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	for _, r := range recs {
		if r.Span == "" {
			t.Errorf("job %d: record has no span ID", r.Job)
		}
		if r.QueueMS < 0 || r.DispatchMS < 0 {
			t.Errorf("job %d: negative phase latency queue=%v dispatch=%v",
				r.Job, r.QueueMS, r.DispatchMS)
		}
	}

	sampler.SampleOnce() // final pass so the last scrape sees the sweep's end state
	out := scrape()
	for _, want := range []string{
		"codsim_cb_channel_frames_total{",
		`codsim_dist_jobs{role="coordinator",state="done"} 8`,
		`codsim_dist_jobs{role="worker",state="finished"} 8`,
		`codsim_dist_worker{worker="w1",stat="done"} 8`,
		`codsim_job_phase_seconds_count{phase="queue"} 8`,
		`codsim_job_phase_seconds_count{phase="dispatch"} 8`,
		`codsim_job_phase_seconds_count{phase="run"} 8`,
		"codsim_job_phase_seconds_bucket{",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("final scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("final scrape:\n%s", out)
	}
}
