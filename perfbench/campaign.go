package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"codsim/cod"
	"codsim/internal/dist"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/sim"
	"codsim/internal/trace"
)

// campaignCount is how many certified scenarios one campaign round
// dispatches — codbatch's `-campaign seed:100`.
const campaignCount = 100

// runCampaign is the campaign workload: codbatch's local campaign path
// (`codbatch -campaign seed:100 -headless -strict`) rebuilt from the
// library calls. Round i generates campaign seed gen.SubSeed(seed, i) with the
// default generator params through a prefetching gen.Stream (Parallel =
// NumCPU, no verdict cache, so every dry-run is flown cold) and streams
// it through dist.Coordinator.RunStream to one in-process dist.Worker
// with NumCPU headless slots on a MemLAN.
func runCampaign(ctx context.Context, e env) (*result, error) {
	res := newResult()
	slots := runtime.NumCPU()
	params := gen.DefaultParams()
	setups, err := streamSetups(ctx, e.seed, params, slots)
	if err != nil {
		return nil, err
	}
	var (
		wall, sourceWait          float64
		jobRates, simRates        []float64
		allocs                    uint64
		jobs                      int
		stats                     gen.Stats
		first                     campaignOutcome
		counters                  cbCounters
		recs                      []dist.Record
		oracleMS, probeMS, lateMS []float64
		runs                      runTimer
	)
	err = rounds(ctx, e.budget, func(i int) (time.Duration, error) {
		cseed := gen.SubSeed(e.seed, int64(i))
		lan := cod.NewMemLAN()
		fed := cod.NewFederation(cod.WithLAN(lan))
		defer fed.Close()
		h, err := startHarness(ctx, fed, lan, e, []string{"local"}, slots,
			sim.BatchConfig{Headless: true, Skill: trace.SkillExpert()}, &runs, int64(i+1))
		if err != nil {
			return 0, err
		}
		defer h.stop()

		alloc0 := totalAlloc()
		t0 := time.Now()
		root := e.tr.begin("dist.stream", fmt.Sprintf("campaign-%d", i), 0)
		runs.setRoot(root)
		stream := gen.NewStream(cseed, params)
		stream.Parallel = slots
		stream.Prefetch = true
		if e.tr != nil {
			stream.Oracle = timedOracle(e.tr, root, gen.DefaultOracle(params), &oracleMS)
		}
		src := &timedSource{inner: &streamJobs{stream: stream, count: campaignCount}}
		out, err := h.coord.RunStream(ctx, src)
		elapsed := time.Since(t0)
		e.tr.end(root)
		stream.Close()
		allocs += totalAlloc() - alloc0
		if err != nil {
			return 0, fmt.Errorf("campaign %d: %w", cseed, err)
		}

		key := gen.Key(cseed, campaignCount, params)
		st := stream.Stats()
		res.attempted += campaignCount
		if len(out) != campaignCount {
			res.problem("%s: %d records for %d jobs", key, len(out), campaignCount)
		}
		simSec := 0.0
		for _, r := range out {
			if r.Err != "" || !r.Passed {
				res.failed++ // -strict: a certified job must pass
			}
			simSec += r.SimSec
		}
		if i == 0 {
			first = campaignOutcome{seed: cseed, key: key, stats: st, cands: candidates(out)}
		}
		wall += elapsed.Seconds()
		jobs += len(out)
		jobRates = append(jobRates, float64(len(out))/elapsed.Seconds())
		simRates = append(simRates, simSec/elapsed.Seconds())
		sourceWait += src.wait.Seconds()
		stats = addStats(stats, st)
		recs = append(recs, out...)
		h.addCounters(&counters)
		p, l := h.probe.samples()
		probeMS, lateMS = append(probeMS, p...), append(lateMS, l...)
		fmt.Fprintf(e.log, "  %s: %d jobs in %.2f s; %d candidates, %d static + %d oracle rejects\n",
			key, len(out), elapsed.Seconds(), st.Candidates, st.StaticRejects, st.OracleRejects)
		return elapsed, nil
	})
	if err != nil {
		return nil, err
	}

	// Determinism: the first campaign's certification, replayed from its
	// seed outside the measured time, must reproduce its Stream.Stats
	// tallies and its certified candidate sequence. Its gen.Key needs no
	// replay: it is a pure function of the seed, count and params.
	if err := first.replay(ctx, params, slots, res); err != nil {
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
		reportDist(res, recs, runs.busy(), float64(slots), wall, sourceWait)
		res.layer["gen.candidates"] = float64(stats.Candidates)
		res.layer["gen.static_rejects"] = float64(stats.StaticRejects)
		res.layer["gen.oracle_rejects"] = float64(stats.OracleRejects)
		res.layer["gen.cache_hits"] = float64(stats.CacheHits)
		res.layer["gen.yield"] = ratio(float64(stats.Emitted), float64(stats.Candidates))
		res.layer["gen.oracle_runs"] = float64(stats.OracleRuns)
		res.timing("gen.oracle_ms", oracleMS)
		runs.report(res)
	}
	return res, nil
}

// setupStreams is how many campaign starts a campaign pass times.
const setupStreams = 600

// streamSetups times setupStreams cold campaign starts — a fresh stream
// with the campaign's settings up to its first certified spec — on seeds
// of their own, outside the measured rounds, so that setup_s is a median
// over many starts rather than over the few rounds a pass fits. Each
// start begins from a freshly collected heap, so a collection left over
// from earlier work does not land inside it.
func streamSetups(ctx context.Context, seed int64, params gen.Params, slots int) ([]float64, error) {
	var out []float64
	for k := 0; k < setupStreams; k++ {
		runtime.GC()
		t0 := time.Now()
		stream := gen.NewStream(gen.SubSeed(seed, int64(-1-k)), params)
		stream.Parallel = slots
		stream.Prefetch = true
		_, _, err := stream.Next(ctx)
		d := time.Since(t0)
		stream.Close()
		if err != nil {
			return nil, fmt.Errorf("setup stream %d: %w", k, err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// streamJobs feeds certified scenarios into the coordinator the way
// codbatch's campaign source does: job ID = emission index, job Seed =
// candidate index, and count jobs in all.
type streamJobs struct {
	stream  *gen.Stream
	count   int
	emitted int
}

func (s *streamJobs) Next(ctx context.Context) (dist.Job, bool, error) {
	if s.emitted >= s.count {
		return dist.Job{}, false, nil
	}
	spec, cand, err := s.stream.Next(ctx)
	if err != nil {
		return dist.Job{}, false, err
	}
	j := dist.Job{ID: int64(s.emitted), Seed: cand, Spec: spec}
	s.emitted++
	return j, true, nil
}

// timedOracle wraps a gen.Oracle with the benchmark's timer: one
// "gen.oracle" span and one latency sample per dry-run. Dry-runs run on
// the stream's certification goroutines, so the sample slice is locked.
func timedOracle(tr *tracer, root int64, inner gen.Oracle, ms *[]float64) gen.Oracle {
	var mu sync.Mutex
	return func(ctx context.Context, spec scenario.Spec) (bool, error) {
		t0 := time.Now()
		ok, err := inner(ctx, spec)
		end := time.Now()
		tr.add("gen.oracle", "cand-"+spec.Name, root, t0, end)
		mu.Lock()
		*ms = append(*ms, float64(end.Sub(t0))/1e6)
		mu.Unlock()
		return ok, err
	}
}

// campaignOutcome is what the determinism check compares.
type campaignOutcome struct {
	seed  int64
	key   string
	stats gen.Stats
	cands []int64
}

// candidates lists the records' candidate indices in job order.
func candidates(recs []dist.Record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.Seed
	}
	return out
}

// replay re-certifies the campaign from its seed and records a problem on
// any difference from the dispatched run.
func (c campaignOutcome) replay(ctx context.Context, params gen.Params, slots int, res *result) error {
	stream := gen.NewStream(c.seed, params)
	stream.Parallel = slots
	stream.Prefetch = true
	defer stream.Close()
	var cands []int64
	for len(cands) < campaignCount {
		_, cand, err := stream.Next(ctx)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", c.key, err)
		}
		cands = append(cands, cand)
	}
	if st := stream.Stats(); st != c.stats {
		res.problem("%s: stats %+v replayed as %+v", c.key, c.stats, st)
	}
	if fmt.Sprint(cands) != fmt.Sprint(c.cands) {
		res.problem("%s: certified candidates differ on replay", c.key)
	}
	return nil
}

func addStats(a, b gen.Stats) gen.Stats {
	a.Candidates += b.Candidates
	a.StaticRejects += b.StaticRejects
	a.OracleRejects += b.OracleRejects
	a.Emitted += b.Emitted
	a.OracleRuns += b.OracleRuns
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	return a
}
