package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"codsim/cod"
	"codsim/internal/dist"
	"codsim/internal/sim"
)

// harness is one dist sweep's cast on a LAN: in-process workers, a
// coordinator, and — in a traced pass — the CB probe.
type harness struct {
	coord *dist.Coordinator
	nodes []*cod.Node
	probe *cbProbe
	setup time.Duration // node attach + WaitWorkers

	cancel context.CancelFunc
	wg     sync.WaitGroup
	closer []func() error
}

// startHarness attaches one worker node per name (each serving slots jobs
// through batch) and a coordinator node to fed, and waits until the
// coordinator has heard every worker. In a traced pass the workers' runner
// is wrapped by runs and the CB probe joins lan after the wait.
func startHarness(ctx context.Context, fed *cod.Federation, lan cod.LAN, e env, names []string,
	slots int, batch sim.BatchConfig, runs *runTimer, sweep int64) (*harness, error) {
	h := &harness{}
	t0 := time.Now()
	span := e.tr.begin("dist.wait_workers", fmt.Sprintf("sweep-%d", sweep), 0)
	wctx, cancel := context.WithCancel(ctx)
	h.cancel = cancel
	for _, name := range names {
		node, err := fed.Node(name + "-node")
		if err != nil {
			h.stop()
			return nil, err
		}
		cfg := dist.WorkerConfig{Name: name, Slots: slots, Batch: batch}
		if e.tr != nil {
			cfg.Run = runs.wrap(e.tr, dist.DefaultRunner)
		}
		w, err := dist.NewWorker(node, cfg)
		if err != nil {
			h.stop()
			return nil, err
		}
		h.nodes = append(h.nodes, node)
		h.closer = append(h.closer, w.Close)
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			_ = w.Run(wctx) // returns wctx.Err() once stop cancels it
		}()
	}
	cnode, err := fed.Node("coordinator-node")
	if err != nil {
		h.stop()
		return nil, err
	}
	h.nodes = append(h.nodes, cnode)
	if h.coord, err = dist.NewCoordinator(cnode, dist.CoordinatorConfig{Sweep: sweep}); err != nil {
		h.stop()
		return nil, err
	}
	h.closer = append(h.closer, h.coord.Close)
	if err := h.coord.WaitWorkers(ctx, names); err != nil {
		h.stop()
		return nil, err
	}
	h.setup = time.Since(t0)
	e.tr.end(span)
	if e.tr != nil {
		if h.probe, err = startProbe(ctx, lan, "dist", e.tr); err != nil {
			h.stop()
			return nil, err
		}
	}
	return h, nil
}

// stop ends the workers, waits for them and withdraws every
// registration; the federation owner closes the nodes.
func (h *harness) stop() {
	h.probe.stop()
	h.cancel()
	h.wg.Wait()
	for _, c := range h.closer {
		_ = c()
	}
}

// addCounters folds the harness nodes' backbone statistics into c.
func (h *harness) addCounters(c *cbCounters) {
	for _, n := range h.nodes {
		c.add(n.Stats())
	}
}

// runTimer wraps the workers' dist.Runner with the benchmark's timer:
// one "trace.run" span per job and its wall time, which is the headless
// trace layer's run (scenario, dynamics, collision and the autopilot
// fold into it).
type runTimer struct {
	mu     sync.Mutex
	root   int64
	ms     []float64
	busyS  float64
	simSec float64
}

// setRoot names the span the next jobs' runs hang under.
func (rt *runTimer) setRoot(root int64) {
	rt.mu.Lock()
	rt.root = root
	rt.mu.Unlock()
}

func (rt *runTimer) wrap(tr *tracer, inner dist.Runner) dist.Runner {
	return func(ctx context.Context, job dist.Job, cfg sim.BatchConfig) dist.Record {
		t0 := time.Now()
		rec := inner(ctx, job, cfg)
		end := time.Now()
		rt.mu.Lock()
		root := rt.root
		rt.ms = append(rt.ms, float64(end.Sub(t0))/1e6)
		rt.busyS += end.Sub(t0).Seconds()
		rt.simSec += rec.SimSec
		rt.mu.Unlock()
		tr.add("trace.run", fmt.Sprintf("job-%d", job.ID), root, t0, end)
		return rec
	}
}

// busy is the summed wall time of every wrapped run (s).
func (rt *runTimer) busy() float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.busyS
}

func (rt *runTimer) report(res *result) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	res.timing("trace.run_ms", append([]float64(nil), rt.ms...))
	res.layer["trace.runs"] = float64(len(rt.ms))
	res.layer["trace.sim_s_per_s"] = ratio(rt.simSec, rt.busyS)
}

// reportDist fills the dist layer's per-layer metrics from a pass's
// records: queue and dispatch latency as the coordinator and worker
// stamped them, re-dispatches, how busy the worker slots were, and how
// long the coordinator sat blocked in its job source.
func reportDist(res *result, recs []dist.Record, busyS, slots, wallS, sourceWaitS float64) {
	var queue, dispatch []float64
	redispatches := 0
	for _, r := range recs {
		queue = append(queue, r.QueueMS)
		dispatch = append(dispatch, r.DispatchMS)
		if r.Attempt > 1 {
			redispatches++
		}
	}
	res.timing("dist.queue_ms", queue)
	res.timing("dist.dispatch_ms", dispatch)
	res.layer["dist.records"] = float64(len(recs))
	res.layer["dist.redispatches"] = float64(redispatches)
	res.layer["dist.worker_busy_share"] = ratio(busyS, slots*wallS)
	res.layer["dist.source_wait_s"] = sourceWaitS
}

// timedSource wraps a dist.JobSource, timing how long the coordinator is
// blocked in Next: on campaign, how long certification held dispatch back.
type timedSource struct {
	inner dist.JobSource
	wait  time.Duration
}

func (s *timedSource) Next(ctx context.Context) (dist.Job, bool, error) {
	t0 := time.Now()
	j, ok, err := s.inner.Next(ctx)
	s.wait += time.Since(t0)
	return j, ok, err
}
