package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"codsim/cod"
)

// TestWritePrometheusGolden pins the text exposition format end to end:
// HELP/TYPE lines, label rendering, integer formatting, histogram
// bucket/sum/count rows, and the name-sorted stable order.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_events_total", "events seen").Add(3)
	g := reg.GaugeVec("test_depth", "queue depth", "queue", "node")
	g.With("claims", "n1").Set(4)
	g.With("results", "n1").Set(2.5)
	h := reg.Histogram("test_latency_seconds", "request latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_depth queue depth
# TYPE test_depth gauge
test_depth{queue="claims",node="n1"} 4
test_depth{queue="results",node="n1"} 2.5
# HELP test_events_total events seen
# TYPE test_events_total counter
test_events_total 3
# HELP test_latency_seconds request latency
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.55
test_latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryIdempotentAndChecked(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "")
	b := reg.Counter("x_total", "")
	if a != b {
		t.Error("re-registering the same counter returned a different instrument")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registering a counter as a gauge did not panic")
			}
		}()
		reg.Gauge("x_total", "")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registering with different labels did not panic")
			}
		}()
		reg.CounterVec("x_total", "", "node")
	}()
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeVec("esc", "", "v").With("a\"b\\c\nd").Set(1)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc{v="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped series %q missing from:\n%s", want, b.String())
	}
}

// fakeBackbone serves canned stats/tables through the narrow interface the
// sampler consumes — the same shape a *cod.Node presents.
type fakeBackbone struct {
	stats cod.Stats
	subs  []cod.TableEntry
	pubs  []cod.TableEntry
}

func (f *fakeBackbone) Stats() *cod.Stats { return &f.stats }

func (f *fakeBackbone) Tables() (pubs, subs []cod.TableEntry) { return f.pubs, f.subs }

func newFakeBackbone() *fakeBackbone {
	f := &fakeBackbone{
		pubs: []cod.TableEntry{{LP: "dynamics", Class: "CraneState", Channels: 2, Stalls: 3}},
		subs: []cod.TableEntry{{
			LP: "visual", Class: "CraneState", Channels: 2, Policy: "latest-value",
			Delivered: 14, Dropped: 5, Conflated: 2,
			ByChannel: []cod.ChannelTally{
				{Channel: 7, Peer: "dyn-pc", Delivered: 9, Dropped: 5, Conflated: 2},
				{Channel: 9, Peer: "sim-pc", Delivered: 5},
			},
		}},
	}
	f.stats.ReflectsDelivered.Add(14)
	f.stats.MailboxDropped.Add(5)
	f.stats.Conflations.Add(2)
	return f
}

// TestSamplerChannelSeries asserts that one scrape pass turns a backbone's
// per-channel tallies into labeled codsim_cb_* series.
func TestSamplerChannelSeries(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, time.Hour)
	s.AddNode("disp-pc", newFakeBackbone())
	s.SampleOnce()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`codsim_cb_channel_frames_total{node="disp-pc",lp="visual",class="CraneState",peer="dyn-pc",channel="7"} 9`,
		`codsim_cb_channel_dropped_total{node="disp-pc",lp="visual",class="CraneState",peer="dyn-pc",channel="7"} 5`,
		`codsim_cb_channel_conflated_total{node="disp-pc",lp="visual",class="CraneState",peer="dyn-pc",channel="7"} 2`,
		`codsim_cb_channel_frames_total{node="disp-pc",lp="visual",class="CraneState",peer="sim-pc",channel="9"} 5`,
		`codsim_cb_pub_credit_stalls_total{node="disp-pc",lp="dynamics",class="CraneState"} 3`,
		`codsim_cb_stat{node="disp-pc",stat="reflects_delivered"} 14`,
		`codsim_cb_stat{node="disp-pc",stat="mailbox_dropped"} 5`,
		`codsim_cb_stat{node="disp-pc",stat="conflations"} 2`,
		`codsim_cb_sub_channels{node="disp-pc",lp="visual",class="CraneState",policy="latest-value"} 2`,
		`codsim_cb_sub_frames_total{node="disp-pc",lp="visual",class="CraneState",policy="latest-value"} 14`,
		`codsim_cb_sub_dropped_total{node="disp-pc",lp="visual",class="CraneState",policy="latest-value"} 5`,
		`codsim_cb_sub_conflated_total{node="disp-pc",lp="visual",class="CraneState",policy="latest-value"} 2`,
		`codsim_obs_samples_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("series %q missing from scrape:\n%s", want, out)
		}
	}
}

// TestSamplerDispatchSeries asserts coordinator and worker dispatch
// samples land as codsim_dist_* series.
func TestSamplerDispatchSeries(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, time.Hour)
	s.AddDispatch(func() DispatchSample {
		return DispatchSample{
			Role: "coordinator", Name: "sweep-1",
			Pending: 3, Granted: 2, Done: 5, Attempts: 11, Redispatches: 1,
			Workers: []WorkerSample{{Name: "host1", Done: 5, Throughput: 2.5, Busy: 2, Slots: 4, SinceSeen: 0.25}},
		}
	})
	s.AddDispatch(func() DispatchSample {
		return DispatchSample{Role: "worker", Name: "host1", Slots: 4, Busy: 2, Claimed: 1, Finished: 5, ResultsAcked: 5}
	})
	s.SampleOnce()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`codsim_dist_jobs{role="coordinator",state="in_flight"} 5`,
		`codsim_dist_jobs{role="coordinator",state="pending"} 3`,
		`codsim_dist_jobs{role="coordinator",state="redispatches"} 1`,
		`codsim_dist_jobs{role="worker",state="busy"} 2`,
		`codsim_dist_jobs{role="worker",state="results_acked"} 5`,
		`codsim_dist_worker{worker="host1",stat="done"} 5`,
		`codsim_dist_worker{worker="host1",stat="throughput_jobs_per_sec"} 2.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("series %q missing from scrape:\n%s", want, out)
		}
	}
}

func TestSpans(t *testing.T) {
	reg := NewRegistry()
	sp := NewSpans(reg)
	sp.Observe(PhaseQueue, 50*time.Millisecond)
	sp.Observe(PhaseRun, 2*time.Second)
	sp.Observe(PhaseRun, -time.Second) // clock step clamps to 0, still counted
	var nilSpans *Spans
	nilSpans.Observe(PhaseAck, time.Second) // nil recorder drops silently

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`codsim_job_phase_seconds_count{phase="queue"} 1`,
		`codsim_job_phase_seconds_count{phase="run"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("series %q missing from scrape:\n%s", want, out)
		}
	}
	if strings.Contains(out, `phase="ack"`) {
		t.Error("nil span recorder leaked an observation")
	}

	a, b2 := MintSpanID(), MintSpanID()
	if a == b2 || a == "" {
		t.Errorf("span IDs not unique: %q, %q", a, b2)
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_up", "").Inc()
	srv := NewServer(reg)
	srv.AddNode("disp-pc", newFakeBackbone())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var b strings.Builder
		if _, err := io.Copy(&b, resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	if out := get("/metrics"); !strings.Contains(out, "test_up 1") {
		t.Errorf("/metrics missing test_up:\n%s", out)
	}
	if out := get("/healthz"); !strings.HasPrefix(out, "ok") {
		t.Errorf("/healthz returned %q", out)
	}
	tablez := get("/debug/tablez")
	for _, want := range []string{"node disp-pc", "dynamics", "visual", "latest-value", "dyn-pc"} {
		if !strings.Contains(tablez, want) {
			t.Errorf("/debug/tablez missing %q:\n%s", want, tablez)
		}
	}
}

// TestPlaneCollectsOnScrape pins the collect-on-scrape contract: /metrics
// must reflect the state at scrape time even if the background sampler
// never ticked — per-channel tallies vanish when a virtual channel tears
// down, so a scrape that only read old ticks could miss a short-lived
// channel entirely.
func TestPlaneCollectsOnScrape(t *testing.T) {
	p := NewPlane("test", io.Discard, time.Hour) // sampler deliberately never started
	p.AddNode("disp-pc", newFakeBackbone())
	ts := httptest.NewServer(p.Server.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	want := `codsim_cb_channel_frames_total{node="disp-pc",lp="visual",class="CraneState",peer="dyn-pc",channel="7"} 9`
	if !strings.Contains(b.String(), want) {
		t.Errorf("scrape without a sampler tick missing %q:\n%s", want, b.String())
	}
}

// BenchmarkObsCounter is the instrumentation hot path: incrementing a
// resolved counter child must not allocate (the BENCH_baseline.json
// ceiling is 0 allocs/op), so metric points can sit on cb/dist fast paths.
func BenchmarkObsCounter(b *testing.B) {
	reg := NewRegistry()
	c := reg.CounterVec("bench_events_total", "", "node").With("n1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkObsSampler is one full scrape pass over a realistic node.
func BenchmarkObsSampler(b *testing.B) {
	reg := NewRegistry()
	s := NewSampler(reg, time.Hour)
	s.AddNode("disp-pc", newFakeBackbone())
	s.AddDispatch(func() DispatchSample {
		return DispatchSample{Role: "coordinator", Name: "sweep-1", Pending: 3,
			Workers: []WorkerSample{{Name: "host1", Done: 5}}}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleOnce()
	}
}
