package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"codsim/cod"
	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/sim"
	"codsim/internal/trace"
)

// examTimeScale is codbatch's default federation timescale.
const examTimeScale = 15

// examSkill is the trainee flying the exam: the intermediate preset with
// a per-exam jitter drawn from the workload seed.
func examSkill() trace.SkillProfile {
	s := trace.SkillIntermediate()
	s.Jitter = 0.2
	return s
}

// clusterNodes are the eight computers of the paper's rack, by backbone
// node name.
func clusterNodes(displays int) []string {
	nodes := []string{sim.NodeSyncServer, sim.NodeDashboard, sim.NodeMotion, sim.NodeInstructor, sim.NodeSim}
	for i := 1; i <= displays; i++ {
		nodes = append(nodes, fmt.Sprintf("display-pc-%d", i))
	}
	return nodes
}

// setupBoots is how many federation boots of its own a fed-exam pass
// times for setup_s.
const setupBoots = 64

// boot builds and starts a federation and waits for its first frame swap,
// returning the cluster and when Start returned.
func boot(cfg sim.Config) (*sim.Cluster, time.Time, error) {
	cl, err := sim.New(cfg)
	if err != nil {
		return nil, time.Time{}, err
	}
	if err := cl.Start(); err != nil {
		cl.Stop()
		return nil, time.Time{}, err
	}
	started := time.Now()
	for cl.Summary().ServerSwaps == 0 {
		if err := cl.Err(); err != nil {
			cl.Stop()
			return nil, time.Time{}, fmt.Errorf("before the first swap: %w", err)
		}
		if time.Since(started) > 30*time.Second {
			cl.Stop()
			return nil, time.Time{}, errors.New("no frame swap within 30 s")
		}
		time.Sleep(time.Millisecond)
	}
	return cl, started, nil
}

// bootSetups times setupBoots federation boots up to the first frame swap,
// on skill seeds of their own and outside the measured exams, so that
// setup_s is the median of many boots rather than of the few exams a pass
// fits. Each boot starts from a freshly collected heap, so a collection
// left over from earlier work does not land inside it. The boots cap
// RenderFrames at 1: the work up to the first swap is unchanged, and the
// displays then finish, so Stop returns at once instead of often waiting
// out the sync server's 5 s stall timeout (see README.md), and no
// stopping federation shares the machine with the next boot.
func bootSetups(seed int64, cfg func(cod.LAN, trace.SkillProfile) sim.Config) ([]float64, error) {
	var out []float64
	for i := 0; i < setupBoots; i++ {
		c := cfg(cod.NewMemLAN(), examSkill().Seeded(gen.SubSeed(seed, int64(-1-i))))
		c.RenderFrames = 1
		runtime.GC()
		t0 := time.Now()
		cl, _, err := boot(c)
		if err != nil {
			return nil, fmt.Errorf("setup boot %d: %w", i, err)
		}
		out = append(out, time.Since(t0).Seconds())
		cl.Stop()
	}
	return out, nil
}

// runFedExam is the fed-exam workload: the full eight-computer federation
// (sim.Config defaults: three 640×480 displays, the paper's 3235-polygon
// scene) on a MemLAN flies the classic licensing exam under the
// autopilot at timescale 15, one exam at a time (a closed loop). Round i
// flies skill seed gen.SubSeed(seed, i). The terrain stays the default site
// (Config.Seed 1) that the scenario library is laid out on, so the
// headless comparison run below sees the same course.
func runFedExam(ctx context.Context, e env) (*result, error) {
	res := newResult()
	spec, err := scenario.ByName("classic-exam")
	if err != nil {
		return nil, err
	}
	cfg := func(lan cod.LAN, skill trace.SkillProfile) sim.Config {
		return sim.Config{
			LAN:       lan,
			TimeScale: examTimeScale,
			Scenario:  &spec,
			Autopilot: true,
			AutoStart: true,
			Skill:     skill,
		}
	}
	setups, err := bootSetups(e.seed, cfg)
	if err != nil {
		return nil, err
	}
	var (
		boots, walls, scores, alarms, gaps []float64
		simSec, examWall, opWall           float64
		allocs                             uint64
		swaps, evicted                     int64
		fps                                []float64
		counters                           cbCounters
		renderMS, waitMS, probeMS, lateMS  []float64
	)
	err = rounds(ctx, e.budget, func(i int) (time.Duration, error) {
		op := fmt.Sprintf("exam-%d", i)
		skillSeed := gen.SubSeed(e.seed, int64(i))
		skill := examSkill().Seeded(skillSeed)
		lan := cod.NewMemLAN()
		var obs *frameObserver
		var probe *cbProbe
		if e.tr != nil {
			var err error
			if obs, err = startObserver(ctx, lan, e.tr); err != nil {
				return 0, err
			}
			defer obs.stop()
			if probe, err = startProbe(ctx, lan, "exam", e.tr); err != nil {
				return 0, err
			}
			defer probe.stop()
		}

		res.attempted++
		alloc0 := totalAlloc()
		t0 := time.Now()
		root := e.tr.begin("sim.exam", op, 0)
		if obs != nil {
			obs.setRoot(op, root)
		}
		cl, started, err := boot(cfg(lan, skill))
		if err != nil {
			return 0, err
		}
		e.tr.add("sim.boot", op, root, t0, started)
		setup := time.Since(t0)
		state, waitErr := cl.WaitExamContext(ctx, 120*time.Second)
		end := time.Now()
		e.tr.end(root)
		sum := cl.Summary()
		clErr := cl.Err()
		for _, n := range clusterNodes(len(sum.DisplayFPS)) {
			counters.add(cl.Backbone(n).Stats())
		}
		cl.Stop()
		allocs += totalAlloc() - alloc0

		terminal := state.Phase == fom.PhaseComplete || state.Phase == fom.PhaseFailed
		if waitErr != nil || clErr != nil || !terminal {
			res.problem("%s: exam ended in phase %v (wait: %v, cluster: %v)", op, state.Phase, waitErr, clErr)
		}
		if state.Phase != fom.PhaseComplete {
			res.failed++
		}
		wall := end.Sub(started).Seconds()
		boots = append(boots, started.Sub(t0).Seconds()*1e3)
		walls = append(walls, wall)
		simSec += state.Elapsed
		examWall += wall
		opWall += end.Sub(t0).Seconds()
		scores = append(scores, state.Score)
		alarms = append(alarms, float64(sum.AlarmEvents))
		swaps += sum.ServerSwaps
		evicted += sum.Evicted
		slowest := sum.DisplayFPS[0]
		for _, f := range sum.DisplayFPS {
			slowest = min(slowest, f)
		}
		fps = append(fps, slowest)
		if e.tr != nil {
			// The federated≠headless score gap: the same spec and
			// trainee, flown by the direct-coupled headless loop.
			h, err := trace.RunSkill(ctx, spec, 900, skill)
			if err != nil {
				res.problem("%s: headless comparison run: %v", op, err)
			}
			gaps = append(gaps, state.Score-h.State.Score)
			r, w := obs.samples()
			renderMS, waitMS = append(renderMS, r...), append(waitMS, w...)
			p, l := probe.samples()
			probeMS, lateMS = append(probeMS, p...), append(lateMS, l...)
		}
		fmt.Fprintf(e.log, "  %s: phase %v, score %.0f, %.1f sim-s in %.2f s wall, setup %.3f s, slowest display %.1f fps\n",
			op, state.Phase, state.Score, state.Elapsed, wall, setup.Seconds(), slowest)
		return end.Sub(t0), nil
	})
	if err != nil {
		return nil, err
	}

	res.e2e["setup_s"] = medianOf(setups)
	res.e2e["sim_s_per_s"] = simSec / examWall
	res.e2e["jobs_per_s"] = float64(len(walls)) / opWall
	res.e2e["alloc_kb_per_op"] = float64(allocs) / 1024 / float64(len(walls))

	if e.tr != nil {
		res.timing("render.frame_ms", renderMS)
		res.layer["render.frames"] = float64(len(renderMS))
		res.timing("displaysync.wait_ms", waitMS)
		res.layer["displaysync.swaps"] = float64(swaps)
		res.layer["displaysync.evicted"] = float64(evicted)
		res.layer["displaysync.fps"] = medianOf(fps)
		pace := simSec / examWall / examTimeScale
		res.layer["lp.pace"] = pace
		res.layer["lp.slip_s"] = (examWall - simSec/examTimeScale) / float64(len(walls))
		counters.report(res)
		res.timing("cb.probe_ms", probeMS)
		res.layer["cb.probes"] = float64(len(probeMS))
		res.layer["cb.probe_late_ms_tail"] = summarize(lateMS).Tail
		res.layer["sim.boot_ms"] = medianOf(boots)
		res.layer["sim.exam_wall_s"] = medianOf(walls)
		res.layer["sim.score"] = medianOf(scores)
		res.layer["sim.alarms"] = medianOf(alarms)
		res.layer["sim.score_gap"] = medianOf(gaps)
	}
	return res, nil
}

// cbCounters sums backbone statistics over a workload's nodes.
type cbCounters struct {
	sent, delivered, conflations, dropped, stalls int64
}

func (c *cbCounters) add(s *cod.Stats) {
	c.sent += s.UpdatesSent.Value()
	c.delivered += s.ReflectsDelivered.Value()
	c.conflations += s.Conflations.Value()
	c.dropped += s.MailboxDropped.Value()
	c.stalls += s.CreditStalls.Value()
}

func (c *cbCounters) report(res *result) {
	res.layer["cb.updates_sent"] = float64(c.sent)
	res.layer["cb.reflects_delivered"] = float64(c.delivered)
	res.layer["cb.conflations"] = float64(c.conflations)
	res.layer["cb.dropped"] = float64(c.dropped)
	res.layer["cb.credit_stalls"] = float64(c.stalls)
	res.layer["cb.delivered_ratio"] = ratio(float64(c.delivered), float64(c.sent))
}
