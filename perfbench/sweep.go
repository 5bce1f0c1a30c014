package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"codsim/cod"
	"codsim/internal/dist"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/sim"
	"codsim/internal/trace"
	"codsim/internal/transport"
)

// sweepRepeat is how many times one dist-sweep round runs the library.
const sweepRepeat = 10

// sweepSkill is the sweep's trainee: the novice preset with per-job
// jitter of ±10% drawn from each job's skill seed. Wider jitter makes
// more novice runs stall until the 1440 sim-s cap (see README), and those
// ~15× longer jobs would dominate the sweep's wall time and its spread.
func sweepSkill() trace.SkillProfile {
	s := trace.SkillNovice()
	s.Jitter = 0.1
	return s
}

// runSweep is the dist-sweep workload: the scenario library × sweepRepeat
// as short headless jobs, sharded by a dist.Coordinator over two
// in-process dist.Workers with one slot each. All three are cod nodes on
// one UDPLAN loopback segment — codbatch's -coordinator production path,
// real sockets included. Round i tags its jobs with seeds derived from
// gen.SubSeed(seed, i), so every job flies its own reproducible trainee.
func runSweep(ctx context.Context, e env) (*result, error) {
	res := newResult()
	skill := sweepSkill()
	var (
		setups             []float64
		wall, sourceWait   float64
		jobRates, simRates []float64
		allocs             uint64
		jobs               int
		counters           cbCounters
		recs               []dist.Record
		probeMS, lateMS    []float64
		runs               runTimer
	)
	workers := []string{"worker-1", "worker-2"}
	err := rounds(ctx, e.budget, func(i int) (time.Duration, error) {
		base, err := transport.FreeUDPSegment("127.0.0.1", 8)
		if err != nil {
			return 0, err
		}
		lan, err := cod.NewUDPLAN("127.0.0.1", base, 8)
		if err != nil {
			return 0, err
		}
		fed := cod.NewFederation(cod.WithLAN(lan))
		defer fed.Close()
		h, err := startHarness(ctx, fed, lan, e, workers, 1,
			sim.BatchConfig{Headless: true, Skill: skill}, &runs, int64(i+1))
		if err != nil {
			return 0, err
		}
		defer h.stop()
		alloc0 := totalAlloc()

		list := sweepJobs(e.seed, i)
		t0 := time.Now()
		root := e.tr.begin("dist.sweep", fmt.Sprintf("sweep-%d", i+1), 0)
		runs.setRoot(root)
		src := &timedSource{inner: dist.SliceJobs(list)}
		out, err := h.coord.RunStream(ctx, src)
		elapsed := time.Since(t0)
		e.tr.end(root)
		allocs += totalAlloc() - alloc0
		if err != nil {
			return 0, err
		}

		res.attempted += len(list)
		simSec := 0.0
		for _, r := range out {
			if r.Err != "" {
				res.failed++
			}
			simSec += r.SimSec
		}
		checkSweep(ctx, res, list, out, skill)
		setups = append(setups, h.setup.Seconds())
		wall += elapsed.Seconds()
		jobs += len(out)
		jobRates = append(jobRates, float64(len(out))/elapsed.Seconds())
		simRates = append(simRates, simSec/elapsed.Seconds())
		sourceWait += src.wait.Seconds()
		recs = append(recs, out...)
		h.addCounters(&counters)
		p, l := h.probe.samples()
		probeMS, lateMS = append(probeMS, p...), append(lateMS, l...)
		fmt.Fprintf(e.log, "  sweep %d: %d jobs in %.3f s over UDP port %d+, setup %.3f s\n",
			i+1, len(out), elapsed.Seconds(), base, h.setup.Seconds())
		return elapsed, nil
	})
	if err != nil {
		return nil, err
	}

	res.e2e["setup_s"] = medianOf(setups)
	res.e2e["sim_s_per_s"] = medianOf(simRates)
	res.e2e["jobs_per_s"] = medianOf(jobRates)
	res.e2e["alloc_kb_per_op"] = float64(allocs) / 1024 / float64(jobs)

	if e.tr != nil {
		counters.report(res)
		res.timing("cb.probe_ms", probeMS)
		res.layer["cb.probes"] = float64(len(probeMS))
		res.layer["cb.probe_late_ms_tail"] = summarize(lateMS).Tail
		reportDist(res, recs, runs.busy(), float64(len(workers)), wall, sourceWait)
		runs.report(res)
	}
	return res, nil
}

// sweepJobs is round i's work list: the library × sweepRepeat, each job's
// Seed (its repeat index) mixed with the workload seed and the round, so
// the jitter its SkillSeed selects differs per workload seed and round.
func sweepJobs(seed int64, i int) []dist.Job {
	jobs := dist.JobsFor(scenario.Library(), sweepRepeat)
	round := gen.SubSeed(seed, int64(i))
	for k := range jobs {
		jobs[k].Seed = gen.SubSeed(round, jobs[k].Seed)
	}
	return jobs
}

// checkSweep compares every record with a local headless sim.RunBatch of
// the same job and skill seed: the verdict, score, alarm count and
// whether the run errored must match exactly, since distribution must not
// change a run's outcome. A run that errored on both sides (a trainee
// that never finished) is consistent; it counts as a failed operation,
// not as a failed check.
func checkSweep(ctx context.Context, res *result, jobs []dist.Job, recs []dist.Record, skill trace.SkillProfile) {
	specs := make([]scenario.Spec, len(jobs))
	seeds := make([]int64, len(jobs))
	for k, j := range jobs {
		specs[k] = j.Spec
		seeds[k] = j.SkillSeed()
	}
	local := sim.RunBatch(ctx, specs, sim.BatchConfig{
		Headless: true, Skill: skill, Seeds: seeds, Parallel: runtime.NumCPU(),
	})
	byJob := make(map[int64]dist.Record, len(recs))
	for _, r := range recs {
		byJob[r.Job] = r
	}
	for k, j := range jobs {
		r, ok := byJob[j.ID]
		want := local[k]
		if !ok {
			res.problem("%v: no record", j)
			continue
		}
		if (r.Err != "") != (want.Err != nil) || r.Passed != want.Passed ||
			r.Score != want.State.Score || r.Alarms != int64(want.Alarms) {
			res.problem("%v: record passed=%v score=%v alarms=%d err=%q, local run passed=%v score=%v alarms=%d err=%v",
				j, r.Passed, r.Score, r.Alarms, r.Err, want.Passed, want.State.Score, want.Alarms, want.Err)
		}
	}
}
