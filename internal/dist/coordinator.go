package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"codsim/cod"
	"codsim/internal/obs"
	"codsim/internal/scenario"
)

// CoordinatorConfig tunes dispatch and failure detection.
type CoordinatorConfig struct {
	// Sweep identifies this work list on the segment; workers key their
	// job state by it, so two sweeps reusing job IDs never mix. 0 derives
	// one from the wall clock.
	Sweep int64
	// Announce is the re-announce period for unassigned jobs (default
	// 250 ms). This is also the coordinator's bookkeeping tick, so dead
	// workers are detected within roughly one Announce of DeadAfter.
	Announce time.Duration
	// DeadAfter declares a worker dead this long after its last
	// heartbeat, re-dispatching its granted jobs (default 3 s — six of
	// the workers' default 500 ms beacons).
	DeadAfter time.Duration
	// JobTimeout re-dispatches a granted job that has produced no result
	// after this long, even from a live worker (default 10 min; a full
	// federation run at timescale 1 is slow, headless shards are not).
	JobTimeout time.Duration
	// MaxAttempts gives up on a job after this many dispatches and
	// records a synthetic failure (default 3).
	MaxAttempts int
	// Window bounds how many jobs RunStream holds in flight (pending or
	// granted) ahead of the workers before pulling more from its source
	// (default 64).
	Window int
	// Log receives dispatch-state transitions (grants, results,
	// re-dispatches) as structured records with consistent field names
	// (sweep, job, worker, attempt, span). Nil is silent (obs.Nop).
	Log *slog.Logger
	// Spans, when set, records per-job phase latencies (the queue phase is
	// observed here, on the coordinator's clock); nil drops them.
	Spans *obs.Spans
}

// logger resolves the configured structured sink.
func (c CoordinatorConfig) logger() *slog.Logger {
	log := c.Log
	if log == nil {
		log = obs.Nop()
	}
	return log.With("sweep", c.Sweep)
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Sweep == 0 {
		c.Sweep = time.Now().UnixNano()
	}
	if c.Announce <= 0 {
		c.Announce = 250 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	return c
}

// workerInfo is the coordinator's liveness view of one worker.
type workerInfo struct {
	seen    time.Time // when the last heartbeat arrived
	sweep   int64     // the sweep that heartbeat reported
	working map[int64]bool
}

// Coordinator owns a sweep's work list: it announces jobs, grants claims,
// collects results, and re-dispatches work lost to dead or stalled
// workers. One coordinator per segment at a time.
type Coordinator struct {
	cfg   CoordinatorConfig
	log   *slog.Logger
	spans *obs.Spans

	pubJob   *cod.Pub[jobAnnounce]
	pubGrant *cod.Pub[jobGrant]
	pubAck   *cod.Pub[jobAck]
	subClaim *cod.Sub[jobClaim]
	subRes   *cod.Sub[jobResult]
	subHB    *cod.Sub[heartbeat]

	workers map[string]*workerInfo

	// prog mirrors dispatch state for the telemetry sampler. RunStream
	// updates it at every phase transition; Sample reads it from the
	// sampler's goroutine, so it has its own lock.
	progMu sync.Mutex
	prog   progress
}

// progress is the coordinator's scrape-facing dispatch state.
type progress struct {
	pending      int64 // jobs loaded, awaiting a grant
	granted      int64 // jobs granted, awaiting a result
	done         int64 // jobs with a Record
	attempts     int64 // dispatch attempts started (first + re-dispatches)
	redispatches int64 // re-dispatches of lost or timed-out grants
	start        time.Time
	workers      map[string]*workerProg
}

// workerProg is the coordinator's per-worker progress view.
type workerProg struct {
	done  int64 // results delivered this sweep
	slots int64 // from the last heartbeat
	busy  int64
	seen  time.Time
}

// NewCoordinator registers the coordinator's channels on the node. The
// caller keeps ownership of the node; Close withdraws only the
// registrations.
func NewCoordinator(node *cod.Node, cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		log:     cfg.logger(),
		spans:   cfg.Spans,
		workers: make(map[string]*workerInfo),
		prog:    progress{start: time.Now(), workers: make(map[string]*workerProg)},
	}
	var err error
	if c.pubJob, err = cod.Publish[jobAnnounce](node, coordinatorLP, ClassJob); err != nil {
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	if c.pubGrant, err = cod.Publish[jobGrant](node, coordinatorLP, ClassGrant); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	if c.pubAck, err = cod.Publish[jobAck](node, coordinatorLP, ClassAck); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	// Claims and results are must-not-lose: Reliable windows push
	// saturation back to the workers (whose re-send loops retry) instead
	// of dropping a finished run's record. Heartbeats are pure state —
	// LatestValue keeps the newest beat per worker (each worker is its
	// own virtual channel) under any backlog.
	if c.subClaim, err = cod.Subscribe[jobClaim](node, coordinatorLP, ClassClaim, cod.Reliable(1024)); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	if c.subRes, err = cod.Subscribe[jobResult](node, coordinatorLP, ClassResult, cod.Reliable(1024)); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	if c.subHB, err = cod.Subscribe[heartbeat](node, coordinatorLP, ClassHeartbeat, cod.WithQueue(256), cod.LatestValue()); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	return c, nil
}

// Close withdraws the coordinator's channel registrations.
func (c *Coordinator) Close() error {
	var errs []error
	if c.pubJob != nil {
		errs = append(errs, c.pubJob.Close())
	}
	if c.pubGrant != nil {
		errs = append(errs, c.pubGrant.Close())
	}
	if c.pubAck != nil {
		errs = append(errs, c.pubAck.Close())
	}
	if c.subClaim != nil {
		errs = append(errs, c.subClaim.Close())
	}
	if c.subRes != nil {
		errs = append(errs, c.subRes.Close())
	}
	if c.subHB != nil {
		errs = append(errs, c.subHB.Close())
	}
	return errors.Join(errs...)
}

// WaitWorkers blocks until every named worker has heartbeated at least
// once (or ctx is done), so a sweep doesn't start before the pool it was
// sized for is live.
func (c *Coordinator) WaitWorkers(ctx context.Context, names []string) error {
	missing := make(map[string]bool, len(names))
	for _, n := range names {
		if _, seen := c.workers[n]; !seen {
			missing[n] = true
		}
	}
	for len(missing) > 0 {
		hb, err := c.subHB.Next(ctx)
		if errors.Is(err, cod.ErrMissingAttr) {
			continue // shape mismatch from a foreign build: skip, like drainHeartbeats
		}
		if err != nil {
			return fmt.Errorf("dist: waiting for workers %v: %w", keys(missing), err)
		}
		c.noteHeartbeat(hb.Value)
		delete(missing, hb.Value.Worker)
	}
	return nil
}

// noteHeartbeat folds one heartbeat into the worker table and the
// telemetry progress view.
func (c *Coordinator) noteHeartbeat(hb heartbeat) {
	working := make(map[int64]bool, len(hb.Working))
	for _, id := range hb.Working {
		working[id] = true
	}
	now := time.Now()
	c.workers[hb.Worker] = &workerInfo{seen: now, sweep: hb.Sweep, working: working}

	c.progMu.Lock()
	wp := c.prog.workers[hb.Worker]
	if wp == nil {
		wp = &workerProg{}
		c.prog.workers[hb.Worker] = wp
	}
	wp.slots, wp.busy, wp.seen = hb.Slots, hb.Busy, now
	c.progMu.Unlock()
}

// moveJob records one job's phase transition in the progress view; pass
// from = -1 for a newly loaded job.
func (c *Coordinator) moveJob(from, to jobPhase) {
	c.progMu.Lock()
	switch from {
	case jobPending:
		c.prog.pending--
	case jobGranted:
		c.prog.granted--
	}
	switch to {
	case jobPending:
		c.prog.pending++
	case jobGranted:
		c.prog.granted++
	case jobDone:
		c.prog.done++
	}
	c.progMu.Unlock()
}

// noteAttempt counts one dispatch attempt (and, past the first, one
// re-dispatch).
func (c *Coordinator) noteAttempt(redispatch bool) {
	c.progMu.Lock()
	c.prog.attempts++
	if redispatch {
		c.prog.redispatches++
	}
	c.progMu.Unlock()
}

// noteWorkerDone credits one delivered result to a worker's throughput.
func (c *Coordinator) noteWorkerDone(worker string) {
	c.progMu.Lock()
	wp := c.prog.workers[worker]
	if wp == nil {
		wp = &workerProg{}
		c.prog.workers[worker] = wp
	}
	wp.done++
	c.progMu.Unlock()
}

// Sample snapshots the coordinator's dispatch state for the telemetry
// sampler (obs.Sampler.AddDispatch). Safe to call from any goroutine.
func (c *Coordinator) Sample() obs.DispatchSample {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	d := obs.DispatchSample{
		Role:         "coordinator",
		Name:         fmt.Sprintf("sweep-%d", c.cfg.Sweep),
		Pending:      c.prog.pending,
		Granted:      c.prog.granted,
		Done:         c.prog.done,
		Attempts:     c.prog.attempts,
		Redispatches: c.prog.redispatches,
	}
	elapsed := time.Since(c.prog.start).Seconds()
	names := make([]string, 0, len(c.prog.workers))
	for name := range c.prog.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wp := c.prog.workers[name]
		ws := obs.WorkerSample{
			Name: name, Done: wp.done, Busy: wp.busy, Slots: wp.slots,
			SinceSeen: time.Since(wp.seen).Seconds(),
		}
		if elapsed > 0 {
			ws.Throughput = float64(wp.done) / elapsed
		}
		d.Workers = append(d.Workers, ws)
	}
	return d
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// jobPhase is a dispatch state of one job.
type jobPhase int

const (
	jobPending jobPhase = iota
	jobGranted
	jobDone
)

// jobState is the coordinator's view of one job.
type jobState struct {
	job      Job
	specJSON []byte
	phase    jobPhase
	attempt  int64
	worker   string    // grantee while granted
	created  time.Time // when the job was pulled from its source
	granted  time.Time // when the grant was sent
	deadline time.Time // JobTimeout while granted, and while re-dispatched
	announce time.Time // last announce while pending
	span     string    // trace span ID, minted at load, rides every message
	queueMS  float64   // load→grant latency of the winning attempt
	rec      Record
}

// RunStream dispatches the jobs of an incremental work list: it keeps at
// most Window jobs in flight, pulling more from the source as results
// free slots, and blocks until the source is exhausted and every pulled
// job has a Record (or ctx is done). Records come back sorted by job ID;
// on cancellation the partial set is returned with ctx.Err(). Jobs that
// exhaust MaxAttempts get a synthetic failed Record rather than stalling
// the sweep. A materialized job list runs as SliceJobs(jobs). The source
// is only ever polled from this goroutine; a source that blocks (a
// generator certifying its next candidate) delays refills but never the
// draining of results already in flight by more than one poll.
func (c *Coordinator) RunStream(ctx context.Context, src JobSource) ([]Record, error) {
	states := make(map[int64]*jobState)
	var jobs []Job
	done := 0
	exhausted := false

	// load tops the in-flight set back up to the window. Malformed or
	// duplicate jobs abort the sweep — a streaming source is code, not
	// input, and dispatching around its bug would silently shrink the
	// campaign.
	load := func() error {
		for !exhausted && len(states)-done < c.cfg.Window {
			j, ok, err := src.Next(ctx)
			if err != nil {
				return fmt.Errorf("dist: job source: %w", err)
			}
			if !ok {
				exhausted = true
				return nil
			}
			data, err := scenario.MarshalSpec(j.Spec)
			if err != nil {
				return fmt.Errorf("dist: %s: %w", j, err)
			}
			if _, dup := states[j.ID]; dup {
				return fmt.Errorf("dist: duplicate job id %d", j.ID)
			}
			states[j.ID] = &jobState{
				job: j, specJSON: data, attempt: 1,
				created: time.Now(), span: obs.MintSpanID(),
			}
			jobs = append(jobs, j)
			c.moveJob(-1, jobPending)
			c.noteAttempt(false)
		}
		return nil
	}

	tick := time.NewTicker(c.cfg.Announce)
	defer tick.Stop()
	for {
		if err := load(); err != nil {
			return collect(jobs, states), err
		}
		c.drainHeartbeats()
		if n := c.drainResults(states); n > 0 {
			done += n
			// A result frees a worker slot: refill the window and
			// re-announce the backlog now instead of waiting out the
			// period, or every slot refill costs a full Announce of idle
			// time.
			if err := load(); err != nil {
				return collect(jobs, states), err
			}
			for _, s := range states {
				if s.phase == jobPending {
					s.announce = time.Time{}
				}
			}
		}
		c.drainClaims(states)
		done += c.redispatch(states)
		if exhausted && done == len(states) {
			return collect(jobs, states), nil
		}
		c.announcePending(states)

		select {
		case <-ctx.Done():
			return collect(jobs, states), ctx.Err()
		case <-tick.C:
		case <-c.subClaim.NotifyC():
		case <-c.subRes.NotifyC():
		case <-c.subHB.NotifyC():
		}
	}
}

// collect gathers finished records in job-ID order.
func collect(jobs []Job, states map[int64]*jobState) []Record {
	out := make([]Record, 0, len(jobs))
	for _, j := range jobs {
		if s := states[j.ID]; s.phase == jobDone {
			out = append(out, s.rec)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Job < out[k].Job })
	return out
}

func (c *Coordinator) drainHeartbeats() {
	for {
		hb, ok, err := c.subHB.Poll()
		if err != nil {
			continue // shape mismatch from a foreign build: skip
		}
		if !ok {
			return
		}
		c.noteHeartbeat(hb.Value)
	}
}

// drainResults records finished jobs; the first Record per job wins and
// stale attempts are accepted — the work is identical.
func (c *Coordinator) drainResults(states map[int64]*jobState) (newlyDone int) {
	for {
		r, ok, err := c.subRes.Poll()
		if err != nil {
			continue // shape mismatch from a foreign build: skip
		}
		if !ok {
			return newlyDone
		}
		res := r.Value
		s := states[res.Job]
		if res.Sweep != c.cfg.Sweep || s == nil {
			continue
		}
		if s.phase == jobDone {
			c.ack(res.Job) // duplicate re-send: re-ack so the worker stops
			continue
		}
		var rec Record
		if err := unmarshalRecord(res.Record, &rec); err != nil {
			continue // corrupt record: let the job be re-dispatched
		}
		// The coordinator owns the span and the queue phase; the worker
		// stamped DispatchMS on its own clock before marshaling.
		rec.Span = s.span
		rec.QueueMS = s.queueMS
		c.moveJob(s.phase, jobDone)
		s.phase = jobDone
		s.rec = rec
		newlyDone++
		c.ack(res.Job)
		c.noteWorkerDone(res.Worker)
		c.log.Info("job done",
			"job", res.Job, "worker", res.Worker, "attempt", res.Attempt,
			"span", s.span, "wall_s", rec.WallSec, "passed", rec.Passed)
	}
}

// drainClaims grants each claimed pending job to its first bidder; claims
// for already-granted or done jobs re-send the standing grant so losing
// bidders release their slot.
func (c *Coordinator) drainClaims(states map[int64]*jobState) {
	for {
		r, ok, err := c.subClaim.Poll()
		if err != nil {
			continue
		}
		if !ok {
			return
		}
		claim := r.Value
		s := states[claim.Job]
		if claim.Sweep != c.cfg.Sweep || s == nil {
			continue
		}
		switch s.phase {
		case jobPending:
			if claim.Attempt != s.attempt {
				continue // bid on a stale announce; re-announce solicits a fresh one
			}
			c.moveJob(s.phase, jobGranted)
			s.phase = jobGranted
			s.worker = claim.Worker
			s.granted = time.Now()
			s.deadline = s.granted.Add(c.cfg.JobTimeout)
			// The queue phase ends here: the job waited from load until a
			// worker won it. Re-dispatches overwrite it — the latency that
			// matters is the attempt that went on to run.
			queued := s.granted.Sub(s.created)
			// Fractional ms: in-process grants land in microseconds, and a
			// truncated 0 would hide the report's DISP-MS column.
			s.queueMS = float64(queued.Microseconds()) / 1e3
			c.spans.Observe(obs.PhaseQueue, queued)
			c.sendGrant(s)
			c.log.Info("job granted",
				"job", s.job.ID, "worker", s.worker, "attempt", s.attempt,
				"span", s.span, "queue_ms", s.queueMS)
		case jobGranted, jobDone:
			if s.worker != "" {
				c.sendGrant(s) // idempotent re-send releases the loser
			}
		}
	}
}

// ack confirms a recorded result. A lost ack only costs another result
// re-send, which is re-acked here — both messages are idempotent.
func (c *Coordinator) ack(job int64) {
	_ = c.pubAck.Update(0, jobAck{Sweep: c.cfg.Sweep, Job: job})
}

func (c *Coordinator) sendGrant(s *jobState) {
	grant := jobGrant{Sweep: c.cfg.Sweep, Job: s.job.ID, Attempt: s.attempt, Worker: s.worker}
	// A failed grant is recovered by JobTimeout; no subscribers means the
	// last worker vanished between claim and grant.
	_ = c.pubGrant.Update(0, grant)
}

// redispatch returns granted jobs to pending when their worker died or
// the job outlived its timeout, failing them outright past MaxAttempts.
// A re-dispatched job that stays unclaimed for another JobTimeout burns
// an attempt too — a sole worker stuck running the job ignores its
// re-announces, and the sweep must fail the job rather than hang.
// First-attempt pending jobs never expire: an empty segment is a pool
// that has not joined yet, not a failure.
func (c *Coordinator) redispatch(states map[int64]*jobState) (newlyDone int) {
	now := time.Now()
	// grantSlack is how long after a grant the grantee's heartbeats may
	// still omit the job before the grant counts as lost: long enough
	// for grant delivery plus one beat, well under any real job.
	grantSlack := 2 * c.cfg.Announce
	if grantSlack < 500*time.Millisecond {
		grantSlack = 500 * time.Millisecond
	}
	for _, s := range states {
		switch s.phase {
		case jobGranted:
			w := c.workers[s.worker]
			dead := w != nil && now.Sub(w.seen) > c.cfg.DeadAfter
			// Lost grant: the grantee beats on this sweep, its latest
			// beat postdates the grant by the slack, yet it never lists
			// the job — its claim expired before the grant arrived
			// (e.g. the grant channel was still being established), so
			// nobody is running this job. Without this check the sweep
			// stalls for the whole JobTimeout.
			lost := w != nil && w.sweep == c.cfg.Sweep &&
				w.seen.After(s.granted.Add(grantSlack)) && !w.working[s.job.ID]
			if !dead && !lost && now.Before(s.deadline) {
				continue
			}
			c.log.Warn("grant failed",
				"job", s.job.ID, "worker", s.worker, "attempt", s.attempt,
				"span", s.span, "dead", dead, "lost", lost,
				"timeout", !now.Before(s.deadline))
		case jobPending:
			if s.attempt == 1 || now.Before(s.deadline) {
				continue
			}
			c.log.Warn("re-dispatch unclaimed past deadline",
				"job", s.job.ID, "attempt", s.attempt, "span", s.span)
		default:
			continue
		}
		if int(s.attempt) >= c.cfg.MaxAttempts {
			c.moveJob(s.phase, jobDone)
			s.phase = jobDone
			s.rec = Record{
				Job:      s.job.ID,
				Attempt:  s.attempt,
				Scenario: s.job.Spec.Name,
				Title:    s.job.Spec.Title,
				Seed:     s.job.Seed,
				Worker:   s.worker,
				Span:     s.span,
				Err:      fmt.Sprintf("dist: gave up after %d attempts (last worker %s)", s.attempt, s.worker),
			}
			newlyDone++
			continue
		}
		c.moveJob(s.phase, jobPending)
		s.phase = jobPending
		s.attempt++
		s.worker = ""
		s.deadline = now.Add(c.cfg.JobTimeout)
		s.announce = time.Time{} // re-announce immediately
		c.noteAttempt(true)
	}
	return newlyDone
}

// announcePending publishes every pending job whose announce period
// elapsed. ErrNoSubscribers just means no worker has joined yet, and
// ErrWindowFull that a worker's Reliable announce window is saturated
// (the update reached every other worker) — the next period retries
// either way, and announces are idempotent.
func (c *Coordinator) announcePending(states map[int64]*jobState) {
	now := time.Now()
	for _, s := range states {
		if s.phase != jobPending || now.Sub(s.announce) < c.cfg.Announce {
			continue
		}
		s.announce = now
		// Failures — ErrNoSubscribers or channel-level — are all retried
		// at the next period; the announce timestamp is already set.
		_ = c.pubJob.Update(0, jobAnnounce{
			Sweep:   c.cfg.Sweep,
			Job:     s.job.ID,
			Attempt: s.attempt,
			Seed:    s.job.Seed,
			Spec:    s.specJSON,
			Span:    s.span,
		})
	}
}
