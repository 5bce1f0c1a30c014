package sim

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/trace"
)

// BatchConfig tunes a batch run.
type BatchConfig struct {
	// Base is the cluster template for every federation. Its LAN must be
	// nil (each run gets a private in-memory LAN) and its Scenario field
	// is ignored; Autopilot and AutoStart are forced on. Unused when
	// Headless is set.
	Base Config
	// Parallel caps how many runs execute concurrently. Default for
	// federations: max(1, NumCPU/4) — a full federation is eight busy
	// virtual computers, so oversubscribing stalls the paced LP loops.
	// Default for headless runs: NumCPU (they are plain CPU-bound loops).
	Parallel int
	// Timeout bounds each run. This is the one rule, for both modes:
	//
	//   - Federation runs: a wall-clock cap on the run (default 120 s).
	//   - Headless runs: a simulation-time cap of Timeout's seconds —
	//     they finish in a fraction of real time, so a wall clock would
	//     be the wrong budget. Default: three par times, at least 900
	//     sim-seconds, from the scenario's own course.
	Timeout time.Duration
	// Headless skips the federation and couples dynamics, engine and
	// autopilot directly (trace.Runner) — the fast path for smoke sweeps.
	Headless bool
	// Skill degrades every run's autopilots (reaction lag, overshoot,
	// widened slack); the zero value is the flawless expert. Sweeping the
	// presets over a scenario matrix yields realistic score spreads.
	Skill trace.SkillProfile
	// Seeds optionally gives each run its skill-jitter seed, parallel to
	// the spec slice (missing entries read as 0). With Skill.Jitter > 0,
	// run i flies Skill.Seeded(Seeds[i]) — a deterministic per-run
	// variation that widens sweep distributions reproducibly. The dist
	// worker and codbatch thread each job's seed through here.
	Seeds []int64
	// Log, when set, receives one structured record per run start and
	// finish (scenario, seed, score, wall_s); nil is silent.
	Log *slog.Logger
}

// logOf returns the configured logger or a discard sink, so the run paths
// log unconditionally.
func (c BatchConfig) logOf() *slog.Logger {
	if c.Log == nil {
		return slog.New(slog.DiscardHandler)
	}
	return c.Log
}

// seedFor returns run i's skill-jitter seed.
func (c BatchConfig) seedFor(i int) int64 {
	if i < len(c.Seeds) {
		return c.Seeds[i]
	}
	return 0
}

// BatchResult is one scenario's outcome in a batch.
type BatchResult struct {
	Scenario string
	Title    string
	State    fom.ScenarioState
	Passed   bool
	Err      error
	Wall     time.Duration
	// Alarms counts the alarm lamps the run lit (safety alarms plus
	// collisions) — the instructor-side misconduct count surfaced into
	// the persisted dist.Record rows.
	Alarms uint32
}

// RunBatch executes one full federation per scenario spec, Parallel at a
// time, and reports per-scenario outcomes in input order. This is the
// cluster-scale counterpart of trace.Runner: every run boots the whole
// eight-computer COD — displays, sync server, dashboard, motion,
// instructor, sim PC — on its own in-memory LAN, drives the scenario with
// the autopilot, and waits for the terminal phase.
//
// Canceling ctx abandons the batch: queued runs never start and in-flight
// runs stop early; both report ctx's error in their BatchResult. The
// result slice always has one entry per spec.
func RunBatch(ctx context.Context, specs []scenario.Spec, cfg BatchConfig) []BatchResult {
	if cfg.Parallel <= 0 {
		if cfg.Headless {
			cfg.Parallel = runtime.NumCPU()
		} else {
			cfg.Parallel = runtime.NumCPU() / 4
		}
		if cfg.Parallel < 1 {
			cfg.Parallel = 1
		}
	}
	if cfg.Timeout <= 0 && !cfg.Headless {
		cfg.Timeout = 120 * time.Second
	}
	run := runOne
	if cfg.Headless {
		run = runOneHeadless
	}

	results := make([]BatchResult, len(specs))
	sem := make(chan struct{}, cfg.Parallel)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			canceled := func() {
				results[i] = BatchResult{
					Scenario: specs[i].Name, Title: specs[i].Title, Err: ctx.Err(),
				}
			}
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				canceled()
				return
			}
			// Re-check after the acquire: with both select cases ready the
			// choice is random, and a canceled batch must not boot a whole
			// federation just to tear it down.
			if ctx.Err() != nil {
				canceled()
				return
			}
			seed := cfg.seedFor(i)
			log := cfg.logOf()
			log.Info("run started", "scenario", specs[i].Name, "seed", seed,
				"headless", cfg.Headless)
			results[i] = run(ctx, specs[i], cfg, seed)
			r := &results[i]
			log.Info("run finished", "scenario", r.Scenario, "seed", seed,
				"passed", r.Passed, "score", r.State.Score,
				"wall_s", r.Wall.Seconds(), "alarms", r.Alarms)
		}(i)
	}
	wg.Wait()
	return results
}

// runOneHeadless executes one spec without a federation, budgeted in
// simulation time (see BatchConfig.Timeout). seed drives the run's skill
// jitter (see BatchConfig.Seeds).
func runOneHeadless(ctx context.Context, spec scenario.Spec, cfg BatchConfig, seed int64) (res BatchResult) {
	res = BatchResult{Scenario: spec.Name, Title: spec.Title}
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()

	maxSim := cfg.Timeout.Seconds()
	if maxSim <= 0 {
		maxSim = 3 * spec.Course.ParTime
		if maxSim < 900 {
			maxSim = 900
		}
	}
	r, err := trace.RunSkill(ctx, spec, maxSim, cfg.Skill.Seeded(seed))
	res.State = r.State
	res.Passed = r.Passed
	res.Alarms = r.Alarms
	res.Err = err
	return res
}

// runOne boots one federation for the spec and runs it to a verdict.
// seed drives the run's skill jitter (see BatchConfig.Seeds).
func runOne(ctx context.Context, spec scenario.Spec, cfg BatchConfig, seed int64) (res BatchResult) {
	res = BatchResult{Scenario: spec.Name, Title: spec.Title}
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()

	ccfg := cfg.Base
	ccfg.LAN = nil // private segment per federation
	ccfg.Scenario = &spec
	ccfg.Autopilot = true
	ccfg.AutoStart = true
	ccfg.Skill = cfg.Skill.Seeded(seed)

	cluster, err := New(ccfg)
	if err != nil {
		res.Err = fmt.Errorf("build: %w", err)
		return res
	}
	defer cluster.Stop()
	if err := cluster.Start(); err != nil {
		res.Err = fmt.Errorf("start: %w", err)
		return res
	}
	state, err := cluster.WaitExamContext(ctx, cfg.Timeout)
	res.State = state
	res.Err = err
	res.Passed = err == nil && state.Phase == fom.PhaseComplete
	res.Alarms = cluster.AlarmEvents()
	return res
}

// WriteBatchReport renders the score/pass-rate table for a finished batch.
func WriteBatchReport(w io.Writer, results []BatchResult) {
	fmt.Fprintf(w, "%-18s %-34s %8s %8s %9s  %s\n",
		"SCENARIO", "TITLE", "SCORE", "SIM-SEC", "WALL-MS", "VERDICT")
	passed := 0
	for _, r := range results {
		verdict := "FAIL"
		switch {
		case r.Err != nil:
			verdict = "ERROR: " + r.Err.Error()
		case r.Passed:
			verdict = "pass"
			passed++
		}
		fmt.Fprintf(w, "%-18s %-34s %8.1f %8.1f %9.1f  %s\n",
			r.Scenario, r.Title, r.State.Score, r.State.Elapsed,
			float64(r.Wall)/float64(time.Millisecond), verdict)
	}
	rate := 0.0
	if len(results) > 0 {
		rate = float64(passed) / float64(len(results)) * 100
	}
	fmt.Fprintf(w, "pass rate: %d/%d (%.0f%%)\n", passed, len(results), rate)
}
