// Package dist shards scenario batches across worker hosts over the
// Communication Backbone, making the paper's cluster-of-desktops story
// real at the batch layer: one coordinator process owns a work list of
// scenario jobs, N worker processes each run their share through
// sim.RunBatch, and every exchange rides typed cod channels on a shared
// LAN segment (UDPLAN across processes, MemLAN inside tests).
//
// # Protocol
//
// Six object classes carry the whole protocol:
//
//	dist.Job        coordinator → workers   announce of an unassigned job
//	dist.Claim      worker → coordinator    bid to run an announced job
//	dist.Grant      coordinator → workers   assignment of a job to one worker
//	dist.Result     worker → coordinator    the finished job's Record (JSON)
//	dist.Ack        coordinator → workers   receipt of a job's Record
//	dist.Heartbeat  worker → coordinator    liveness + slot occupancy
//
// Dispatch and result channels (dist.Job, dist.Claim, dist.Grant,
// dist.Result, dist.Ack) declare the backbone's Reliable delivery policy:
// each publisher holds a credit window per subscriber, so a saturated
// peer stalls the sender instead of a mailbox shedding distinct protocol
// messages. dist.Heartbeat declares LatestValue — each worker is its own
// virtual channel, so conflation keeps exactly the newest beat per
// worker. The window covers slow-consumer loss; the ack/re-send loop
// below stays for link-churn loss, which no window can see.
//
// The coordinator re-announces unassigned jobs on a short period, so a
// worker that joins mid-sweep still picks up work (the backbone's dynamic
// join finds the channels, the re-announce fills them). Claims race;
// the coordinator grants each (job, attempt) to exactly one worker and
// re-sends the grant on duplicate claims so losers release their bid.
// A granted job is re-dispatched — announced again with the next attempt
// number — when its worker misses heartbeats long enough to be declared
// dead, or when the job outlives JobTimeout. Results ride at-least-once
// delivery: the worker re-sends a finished job's Record until the
// coordinator acknowledges it on dist.Ack, because the backbone tears
// down virtual channels on link churn and a frame written just before a
// teardown is gone without either side erroring. The coordinator dedups:
// the first Record per job wins, stale attempts are accepted (the work
// is identical), duplicates are dropped and re-acked.
//
// Job payloads ship the scenario itself as scenario.MarshalSpec JSON, so
// a worker host needs no scenario library — the sweep's spec files never
// leave the coordinator.
//
// The work list itself can be incremental: Coordinator.RunStream pulls
// jobs from a JobSource and keeps at most CoordinatorConfig.Window of
// them in flight, so a procedural campaign (scenario/gen via codbatch
// -campaign) streams thousands of generated jobs through the sweep
// without materializing them up front; a fixed list runs as
// RunStream(ctx, SliceJobs(jobs)).
//
// Every run persists as one JSON-lines Record (scenario, seed, score,
// phase, sim/wall time, worker); Report aggregates pass rate and
// p50/p90/p99 percentiles, and Compare diffs two result files for
// regressions. cmd/codbatch wires the whole thing into -serve /
// -coordinator / -out / -compare flags.
//
// # Observability
//
// Both sides log through log/slog with structured fields (sweep, job,
// worker, attempt, span) — CoordinatorConfig.Log / WorkerConfig.Log,
// silent when nil. Each job carries a trace-span
// ID minted at dispatch and threaded through announce, grant and the
// returned Record, with phase latencies (queue, dispatch, run, ack)
// recorded into an optional obs.Spans histogram — each phase is timed
// on a single machine's clock, so skew between hosts never distorts it.
// Coordinator.Sample and Worker.Sample expose live dispatch state for
// the obs sampler's codsim_dist_* gauges.
package dist

import (
	"fmt"

	"codsim/internal/scenario"
)

// Object classes of the dist protocol.
const (
	ClassJob       = "dist.Job"
	ClassClaim     = "dist.Claim"
	ClassGrant     = "dist.Grant"
	ClassResult    = "dist.Result"
	ClassAck       = "dist.Ack"
	ClassHeartbeat = "dist.Heartbeat"
)

// coordinatorLP is the coordinator's logical-process name on its node.
const coordinatorLP = "coordinator"

// Job is one unit of distributable work: a scenario to run once.
type Job struct {
	// ID is unique within the sweep. Seed tags which repeat of the sweep
	// the job belongs to, and is carried into the persisted Record;
	// today's runs are deterministic per spec (the runner does not
	// consume it — see DefaultRunner), so it exists for bookkeeping and
	// for future stochastic workloads (autopilot skill levels,
	// procedural scenario generation).
	ID   int64
	Seed int64
	Spec scenario.Spec
	// Span is the job's trace span ID, minted by the coordinator at
	// dispatch and threaded through to the worker and its Record so log
	// lines and phase-latency observations join on one key. Empty for
	// jobs that never crossed a coordinator (local batches).
	Span string
}

// JobsFor expands a spec selection into repeat sweeps of jobs with stable
// IDs and per-repeat seeds: job i of repeat r runs specs[i] with seed r+1.
func JobsFor(specs []scenario.Spec, repeat int) []Job {
	if repeat < 1 {
		repeat = 1
	}
	jobs := make([]Job, 0, len(specs)*repeat)
	for r := 0; r < repeat; r++ {
		for _, s := range specs {
			jobs = append(jobs, Job{
				ID:   int64(len(jobs)),
				Seed: int64(r + 1),
				Spec: s,
			})
		}
	}
	return jobs
}

// The wire messages. Field order is the codec contract (cod assigns
// attribute IDs positionally), so reordering fields here is a protocol
// break between mixed coordinator/worker builds.

// jobAnnounce advertises an unassigned (job, attempt) with its spec JSON.
// Span rides at the end: appended fields keep positional attribute IDs
// stable for the fields older builds know.
type jobAnnounce struct {
	Sweep   int64
	Job     int64
	Attempt int64
	Seed    int64
	Spec    []byte
	Span    string
}

// jobClaim is a worker's bid to run an announced job.
type jobClaim struct {
	Sweep   int64
	Job     int64
	Attempt int64
	Worker  string
}

// jobGrant assigns a claimed job to exactly one worker.
type jobGrant struct {
	Sweep   int64
	Job     int64
	Attempt int64
	Worker  string
}

// jobResult carries the finished job's Record as JSON.
type jobResult struct {
	Sweep   int64
	Job     int64
	Attempt int64
	Worker  string
	Record  []byte
}

// jobAck confirms the coordinator recorded (or already had) a job's
// Record, stopping the worker's re-sends.
type jobAck struct {
	Sweep int64
	Job   int64
}

// heartbeat is a worker's periodic liveness beacon. Working lists the
// jobs of Sweep the worker has accepted and still remembers (claimed,
// running, or finished): the coordinator uses it to detect a grant that
// never reached its worker — the grantee is alive and beating, yet never
// lists the job — and re-dispatch far sooner than JobTimeout.
type heartbeat struct {
	Worker  string
	Sweep   int64
	Slots   int64
	Busy    int64
	Working []int64
}

func (j Job) String() string {
	return fmt.Sprintf("job %d (%s, seed %d)", j.ID, j.Spec.Name, j.Seed)
}

// SkillSeed mixes the job's sweep seed (which repeat) and ID (which run
// within the repeat) into the per-run skill-jitter seed, so every run of
// a sweep flies a distinct — yet reproducible — trainee when the batch
// skill profile carries Jitter. Local and distributed execution of the
// same job derive the same seed, keeping their verdicts comparable.
func (j Job) SkillSeed() int64 { return j.Seed<<20 ^ j.ID }
