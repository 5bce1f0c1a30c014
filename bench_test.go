// Benchmarks regenerating the paper's quantitative artifacts, one family
// per experiment of cmd/experiments (EXP-1..7). Run:
//
//	go test -bench=. -benchmem
//
// cmd/experiments prints the corresponding full tables; BENCH_baseline.json
// records a reference run of these benchmarks.
package codsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"codsim/internal/cb"
	"codsim/internal/collision"
	"codsim/internal/crane"
	"codsim/internal/displaysync"
	"codsim/internal/dynamics"
	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/motion"
	"codsim/internal/render"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/sim"
	"codsim/internal/terrain"
	"codsim/internal/trace"
	"codsim/internal/transport"
)

// setupCtx bounds a benchmark's untimed setup waits at 5 s.
func setupCtx(b *testing.B) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	b.Cleanup(cancel)
	return ctx
}

func benchCB() cb.Config {
	return cb.Config{
		BroadcastInterval: 5 * time.Millisecond,
		RefreshInterval:   50 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
	}
}

// --- EXP-1: surround-view frame rate (§4) -------------------------------

type benchRig struct {
	builder *render.SceneBuilder
	rend    *render.Renderer
	cam     render.Camera
	state   fom.CraneState
}

func newBenchRig(b *testing.B, polygons, camIdx, camCount int) *benchRig {
	b.Helper()
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		b.Fatal(err)
	}
	builder, err := render.NewSceneBuilder(ter, nil, polygons)
	if err != nil {
		b.Fatal(err)
	}
	rend, err := render.NewRenderer(640, 480)
	if err != nil {
		b.Fatal(err)
	}
	st := fom.CraneState{
		Position: mathx.V3(100, 0, 100),
		BoomLuff: mathx.Rad(45), BoomLen: 14, CableLen: 6,
		HookPos: mathx.V3(100, 6, 90), CargoPos: mathx.V3(100, 1, 90),
	}
	cams := render.SurroundCameras(st.Position.Add(mathx.V3(0, 3.2, 0)), 0,
		camCount, mathx.Rad(40), 4.0/3.0)
	return &benchRig{builder: builder, rend: rend, cam: cams[camIdx], state: st}
}

func (r *benchRig) frame(n uint32) {
	r.state.BoomSwing = mathx.Rad(float64(n%90) - 45)
	r.rend.Render(r.builder.Frame(r.state), r.cam)
}

// BenchmarkSurroundViewFreeRun is the unsynchronized single-display
// baseline: one op = one rendered frame of the paper-sized scene.
func BenchmarkSurroundViewFreeRun(b *testing.B) {
	for _, polys := range []int{800, 3235, 13000} {
		b.Run(fmt.Sprintf("polys-%d", polys), func(b *testing.B) {
			rig := newBenchRig(b, polys, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.frame(uint32(i))
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "fps")
		})
	}
}

// BenchmarkSurroundViewSynced is the §4 measurement: one op = one frame
// rendered on all three displays and released through the synchronization
// server's barrier over the CB. The fps metric divided into the free-run
// metric is the synchronization overhead.
func BenchmarkSurroundViewSynced(b *testing.B) {
	for _, polys := range []int{800, 3235} {
		b.Run(fmt.Sprintf("polys-%d", polys), func(b *testing.B) {
			lan := transport.NewMemLAN()
			serverBB, err := cb.New(lan, "sync-server", benchCB())
			if err != nil {
				b.Fatal(err)
			}
			defer serverBB.Close()
			srv, err := displaysync.NewServer(serverBB, "sync", displaysync.ServerConfig{
				Expected: []string{"d-1", "d-2", "d-3"},
			})
			if err != nil {
				b.Fatal(err)
			}
			srv.Start()
			defer srv.Stop()

			type unit struct {
				client *displaysync.Display
				rig    *benchRig
			}
			units := make([]*unit, 3)
			for i := range units {
				bb, err := cb.New(lan, fmt.Sprintf("pc-%d", i+1), benchCB())
				if err != nil {
					b.Fatal(err)
				}
				defer bb.Close()
				client, err := displaysync.NewDisplay(bb, fmt.Sprintf("d-%d", i+1))
				if err != nil {
					b.Fatal(err)
				}
				units[i] = &unit{client: client, rig: newBenchRig(b, polys, i, 3)}
			}
			for _, u := range units {
				if !u.client.WaitServer(10 * time.Second) {
					b.Fatal("display never linked")
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, u := range units {
				wg.Add(1)
				go func(u *unit) {
					defer wg.Done()
					if err := u.client.RunFrames(b.N, time.Minute, u.rig.frame); err != nil {
						b.Error(err)
					}
				}(u)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "fps")
		})
	}
}

// --- EXP-2: CB virtual-channel routing (§2.2) ---------------------------

// BenchmarkCBRoutingLocal measures the in-process fast path: one op = one
// UPDATE pushed and reflected on the same computer.
func BenchmarkCBRoutingLocal(b *testing.B) {
	lan := transport.NewMemLAN()
	node, err := cb.New(lan, "solo", benchCB())
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	pub, err := node.PublishObjectClass("p", "State")
	if err != nil {
		b.Fatal(err)
	}
	sub, err := node.SubscribeObjectClass("s", "State", cb.WithQueue(1024))
	if err != nil {
		b.Fatal(err)
	}
	attrs := fom.CraneState{Stability: 1}.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Update(float64(i), attrs); err != nil {
			b.Fatal(err)
		}
		if _, ok := sub.Next(5 * time.Second); !ok {
			b.Fatal("reflection lost")
		}
	}
}

// BenchmarkCBRoutingRemote measures a cross-node virtual channel: one op =
// one UPDATE serialized, routed over the (zero-latency in-memory) LAN, and
// reflected on the other computer.
func BenchmarkCBRoutingRemote(b *testing.B) {
	lan := transport.NewMemLAN()
	pubNode, err := cb.New(lan, "pub-pc", benchCB())
	if err != nil {
		b.Fatal(err)
	}
	defer pubNode.Close()
	subNode, err := cb.New(lan, "sub-pc", benchCB())
	if err != nil {
		b.Fatal(err)
	}
	defer subNode.Close()
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		b.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State", cb.WithQueue(1024))
	if err != nil {
		b.Fatal(err)
	}
	if sub.WaitMatchedContext(setupCtx(b)) != nil {
		b.Fatal("channel never established")
	}
	attrs := fom.CraneState{Stability: 1}.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Update(float64(i), attrs); err != nil {
			b.Fatal(err)
		}
		if _, ok := sub.Next(5 * time.Second); !ok {
			b.Fatal("reflection lost")
		}
	}
}

// BenchmarkCBRoutingLatestValue is the conflating delivery path: one op =
// one UPDATE through a remote latest-value channel with a consuming
// subscriber — the 60 Hz state-channel configuration of the simulator.
func BenchmarkCBRoutingLatestValue(b *testing.B) {
	benchRemoteDelivery(b, cb.WithQueue(1024), cb.WithLatestValue())
}

// BenchmarkCBRoutingReliable is the credit-windowed delivery path: one op
// = one UPDATE through a remote reliable channel with a consuming
// subscriber, including the amortized credit-grant traffic flowing back.
func BenchmarkCBRoutingReliable(b *testing.B) {
	benchRemoteDelivery(b, cb.WithReliable(1024))
}

// benchRemoteDelivery measures one UPDATE over a cross-node virtual
// channel under the given subscription options, consuming as it goes.
func benchRemoteDelivery(b *testing.B, opts ...cb.SubscribeOption) {
	lan := transport.NewMemLAN()
	pubNode, err := cb.New(lan, "pub-pc", benchCB())
	if err != nil {
		b.Fatal(err)
	}
	defer pubNode.Close()
	subNode, err := cb.New(lan, "sub-pc", benchCB())
	if err != nil {
		b.Fatal(err)
	}
	defer subNode.Close()
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		b.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State", opts...)
	if err != nil {
		b.Fatal(err)
	}
	if sub.WaitMatchedContext(setupCtx(b)) != nil {
		b.Fatal("channel never established")
	}
	if pub.WaitChannelsContext(setupCtx(b), 1) != nil {
		b.Fatal("publisher never linked")
	}
	attrs := fom.CraneState{Stability: 1}.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Update(float64(i), attrs); err != nil {
			b.Fatal(err)
		}
		if _, ok := sub.Next(5 * time.Second); !ok {
			b.Fatal("reflection lost")
		}
	}
}

// BenchmarkCBThroughput is the sustained-throughput headline: a publisher
// streams b.N UPDATEs through a remote Reliable channel while a consumer
// goroutine drains concurrently, so the two ends pipeline instead of
// ping-ponging — the steady-state shape of the 60 Hz state fan-out. One
// op = one frame published, routed, and consumed. Reports frames/s and
// the per-core headline frames/s/core (README "Raw speed"). Run at
// -benchtime 1000x for a steady-state reading (check.sh/CI do).
func BenchmarkCBThroughput(b *testing.B) {
	lan := transport.NewMemLAN()
	pubNode, err := cb.New(lan, "pub-pc", benchCB())
	if err != nil {
		b.Fatal(err)
	}
	defer pubNode.Close()
	subNode, err := cb.New(lan, "sub-pc", benchCB())
	if err != nil {
		b.Fatal(err)
	}
	defer subNode.Close()
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		b.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State", cb.WithReliable(1024))
	if err != nil {
		b.Fatal(err)
	}
	if sub.WaitMatchedContext(setupCtx(b)) != nil {
		b.Fatal("channel never established")
	}
	if pub.WaitChannelsContext(setupCtx(b), 1) != nil {
		b.Fatal("publisher never linked")
	}
	attrs := fom.CraneState{Stability: 1}.Encode()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, ok := sub.Next(10 * time.Second); !ok {
				b.Error("reflection lost")
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		// UpdateContext blocks on the credit window when the publisher
		// runs ahead of the consumer — backpressure, not loss.
		if err := pub.UpdateContext(ctx, float64(i), attrs); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	fps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(fps, "frames/s")
	b.ReportMetric(fps/float64(runtime.GOMAXPROCS(0)), "frames/s/core")
}

// --- EXP-3: initialization protocol (§2.3) ------------------------------

// BenchmarkChannelSetup measures the full initialization handshake: one op
// = register a subscriber, broadcast SUBSCRIPTION, receive ACKNOWLEDGE,
// build the virtual channel, and tear it down again.
func BenchmarkChannelSetup(b *testing.B) {
	lan := transport.NewMemLAN()
	pubNode, err := cb.New(lan, "pub-pc", benchCB())
	if err != nil {
		b.Fatal(err)
	}
	defer pubNode.Close()
	if _, err := pubNode.PublishObjectClass("p", "State"); err != nil {
		b.Fatal(err)
	}
	subNode, err := cb.New(lan, "sub-pc", benchCB())
	if err != nil {
		b.Fatal(err)
	}
	defer subNode.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := subNode.SubscribeObjectClass("s", "State")
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = sub.WaitMatchedContext(ctx)
		cancel()
		if err != nil {
			b.Fatal("never matched")
		}
		b.StopTimer()
		_ = sub.Close()
		b.StartTimer()
	}
}

// --- EXP-4: Stewart platform (§3.4) -------------------------------------

// BenchmarkStewartIK: one op = one inverse-kinematics solution.
func BenchmarkStewartIK(b *testing.B) {
	geo := motion.DefaultGeometry()
	pose := motion.Pose{Surge: 0.04, Heave: 0.02, Roll: 0.03, Pitch: 0.04, Yaw: 0.02}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := geo.IK(pose); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMotionController: one op = one washout cue plus one platform
// tick (the 120 Hz controller loop body).
func BenchmarkMotionController(b *testing.B) {
	ctrl, err := motion.NewController(motion.DefaultGeometry(), motion.DefaultWashout(), 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	cue := fom.MotionCue{SpecificForce: mathx.V3(0.3, -9.7, -1.5), Vibration: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			ctrl.Cue(cue, 1.0/120)
		}
		ctrl.Step(1.0 / 120)
	}
}

// --- EXP-5: dynamics and collision (§3.6) -------------------------------

// BenchmarkHookOscillation: one op = one 60 Hz dynamics step with the hook
// pendulum swinging free after a boom stop.
func BenchmarkHookOscillation(b *testing.B) {
	hs := make([]float64, 101*101)
	ter, err := terrain.New(101, 101, 2, hs)
	if err != nil {
		b.Fatal(err)
	}
	m, err := dynamics.New(dynamics.DefaultConfig(), ter, mathx.V3(100, 0, 100), 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 300; i++ { // raise boom, excite the pendulum
		m.Step(fom.ControlInput{Ignition: true, BoomJoyY: 1}, 1.0/60)
	}
	for i := 0; i < 120; i++ {
		m.Step(fom.ControlInput{Ignition: true, BoomJoyX: 1}, 1.0/60)
	}
	in := fom.ControlInput{Ignition: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(in, 1.0/60)
	}
}

// BenchmarkCollisionMultiLevel and BenchmarkCollisionBruteForce: one op =
// one FindContacts pass over a 60-object field; the ratio is the
// multi-level speedup (Moore & Wilhelms, ref [10]).
func BenchmarkCollisionMultiLevel(b *testing.B) { benchCollision(b, false) }

// BenchmarkCollisionBruteForce is the ablation baseline.
func BenchmarkCollisionBruteForce(b *testing.B) { benchCollision(b, true) }

func benchCollision(b *testing.B, brute bool) {
	w := &collision.World{BruteForce: brute}
	for i := 0; i < 60; i++ {
		o := collision.NewObject(fmt.Sprintf("o%d", i), collision.BoxMesh(0.5, 0.5, 0.5))
		o.SetPose(mathx.V3(float64(i%8)*4, 0, float64(i/8)*4), mathx.QuatIdentity())
		w.Add(o)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.FindContacts()
	}
}

// --- EXP-6: licensing exam (§3.5) ---------------------------------------

// BenchmarkScenarioLibrary: one op = one shipped scenario completed
// headless by the generalized autopilot on one reused trace.Runner — the
// per-scenario cost floor a batch or campaign worker slot multiplies out.
func BenchmarkScenarioLibrary(b *testing.B) {
	ctx := context.Background()
	for _, spec := range scenario.Library() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			r := trace.NewRunner()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := r.RunSkill(ctx, spec, 900, trace.SkillProfile{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Passed {
					b.Fatalf("%s: %v score=%.1f", spec.Name, res.State.Phase, res.State.Score)
				}
			}
		})
	}
}

// --- EXP-7: full federation (§2.1, §5) ----------------------------------

// BenchmarkFullSimulatorBoot: one op = construct, start and stop the whole
// eight-computer federation (all channels established, all LPs launched).
func BenchmarkFullSimulatorBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cluster, err := sim.New(sim.Config{
			CB:           benchCB(),
			TimeScale:    8,
			Width:        96,
			Height:       72,
			Polygons:     400,
			RenderFrames: 1,
			Autopilot:    true,
			AutoStart:    true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := cluster.Start(); err != nil {
			b.Fatal(err)
		}
		cluster.Stop()
	}
}

// --- EXP-8: campaign certification at scale -------------------------------

// BenchmarkHeadlessRun: one op = one 60 Hz step of the headless hot loop
// — autopilot control, dynamics step, engine StepAll — on the shared
// default site with live status text off, exactly the loop
// trace.Runner.RunSkill runs and the certification oracle multiplies by
// ~100k. The steady-state step must stay allocation-free (gated in
// BENCH_baseline.json); the sim-s/s metric is the single-lane oracle
// throughput ceiling.
func BenchmarkHeadlessRun(b *testing.B) {
	spec := scenario.Classic()
	const dt = 1.0 / 60

	var (
		models []*dynamics.Model
		pilots []*trace.Autopilot
		states []fom.CraneState
		eng    *scenario.Engine
	)
	build := func() {
		ter := terrain.DefaultMap()
		decls := spec.CraneDecls()
		world := dynamics.NewWorld()
		models = make([]*dynamics.Model, len(decls))
		pilots = make([]*trace.Autopilot, len(decls))
		states = make([]fom.CraneState, len(decls))
		for c, d := range decls {
			m, err := dynamics.NewCrane(dynamics.DefaultConfig(), ter, world, d.Start, d.StartYaw, c)
			if err != nil {
				b.Fatal(err)
			}
			models[c] = m
			pilots[c] = trace.ForCrane(spec, c)
			states[c] = m.State()
		}
		spec.Install(ter, models...)
		var err error
		eng, err = scenario.NewEngineSpec(spec, crane.DefaultSpec())
		if err != nil {
			b.Fatal(err)
		}
		eng.SetLiveStatus(false)
		eng.Start()
	}
	build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := eng.Phase(); p == fom.PhaseComplete || p == fom.PhaseFailed {
			b.StopTimer()
			build() // fresh rig; amortized over the ~40k steps a run takes
			b.StartTimer()
		}
		for c, m := range models {
			in := pilots[c].Control(states[c], eng.StateFor(c), dt)
			in.CraneID = int64(c)
			m.Step(in, dt)
			states[c] = m.State()
		}
		eng.StepAll(states, dt)
	}
	b.ReportMetric(float64(b.N)*dt/b.Elapsed().Seconds(), "sim-s/s")
}

// BenchmarkOracleCertify: one op = one full certification dry-run — rig
// build, expert flight to a terminal phase, verdict — on a fixed
// certified generated candidate, through the same reusable Runner a
// campaign's oracle loop holds. This is the per-candidate cost a 100k
// campaign pays on every cache miss; the alloc ceiling (gated in
// BENCH_baseline.json) keeps the per-run setup from regressing back to
// per-step churn.
func BenchmarkOracleCertify(b *testing.B) {
	p := gen.DefaultParams()
	var spec scenario.Spec
	found := false
	for k := int64(0); k < 50 && !found; k++ {
		cand, err := gen.Generate(gen.SubSeed(7, k), p)
		if err != nil {
			b.Fatal(err)
		}
		if gen.StaticCheck(cand) != nil {
			continue
		}
		if _, ok, err := trace.Completable(context.Background(), cand, 900); err == nil && ok {
			spec, found = cand, true
		}
	}
	if !found {
		b.Fatal("no certifiable candidate in 50 samples")
	}

	runner := &trace.Runner{StallBudget: trace.DefaultStallBudget}
	ctx := context.Background()
	simS := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.RunSkill(ctx, spec, 900, trace.SkillProfile{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed {
			b.Fatal("certified candidate stopped passing mid-benchmark")
		}
		simS += res.SimTime
	}
	b.ReportMetric(simS/b.Elapsed().Seconds(), "sim-s/s")
}
