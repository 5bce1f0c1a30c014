package main

import (
	"fmt"
	"math"
	"time"

	"codsim/internal/collision"
	"codsim/internal/crane"
	"codsim/internal/dynamics"
	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/metrics"
	"codsim/internal/motion"
	"codsim/internal/scenario"
	"codsim/internal/terrain"
	"codsim/internal/trace"
)

// exp4Motion characterizes the Stewart platform controller (§3.4): IK leg
// solutions for canonical poses, the washout response to a sustained
// acceleration, and the engine-vibration amplitude.
func exp4Motion(quick bool) error {
	geo := motion.DefaultGeometry()

	fmt.Println("inverse kinematics: leg lengths (m) for canonical poses:")
	tbl := metrics.NewTable("pose", "leg1", "leg2", "leg3", "leg4", "leg5", "leg6")
	poses := []struct {
		name string
		p    motion.Pose
	}{
		{"home", motion.Pose{}},
		{"heave +0.08", motion.Pose{Heave: 0.08}},
		{"pitch +5°", motion.Pose{Pitch: mathx.Rad(5)}},
		{"roll +5°", motion.Pose{Roll: mathx.Rad(5)}},
		{"yaw +6°", motion.Pose{Yaw: mathx.Rad(6)}},
		{"combined", motion.Pose{Surge: 0.05, Heave: 0.03, Pitch: mathx.Rad(3), Roll: mathx.Rad(-2)}},
	}
	for _, pc := range poses {
		legs, err := geo.IK(pc.p)
		if err != nil {
			return fmt.Errorf("IK %s: %w", pc.name, err)
		}
		tbl.AddRow(pc.name, legs[0], legs[1], legs[2], legs[3], legs[4], legs[5])
	}
	fmt.Print(tbl.String())

	// Washout step response: sustained 3 m/s² forward acceleration.
	fmt.Println("\nwashout step response (sustained 3 m/s² forward):")
	ctrl, err := motion.NewController(geo, motion.DefaultWashout(), 16, 1)
	if err != nil {
		return err
	}
	const dt = 1.0 / 60
	cue := fom.MotionCue{SpecificForce: mathx.V3(0, -9.81, -3)}
	tbl2 := metrics.NewTable("t (s)", "surge (m)", "tilt pitch (deg)")
	horizon := 12.0
	if quick {
		horizon = 4
	}
	next := 0.0
	var st motion.State
	for t := 0.0; t < horizon; t += dt {
		ctrl.Cue(cue, dt)
		st = ctrl.Step(dt)
		if t >= next {
			tbl2.AddRow(t, st.Pose.Surge, mathx.Deg(st.Pose.Pitch))
			next += horizon / 8
		}
	}
	fmt.Print(tbl2.String())
	fmt.Println("(surge returns toward center while tilt coordination takes over: classical washout)")

	// Vibration amplitude by engine intensity.
	fmt.Println("\nengine vibration (heave rms, m):")
	tbl3 := metrics.NewTable("intensity", "rms heave (m)")
	for _, intensity := range []float64{0, 0.3, 0.6, 1.0} {
		c2, err := motion.NewController(geo, motion.DefaultWashout(), 16, 7)
		if err != nil {
			return err
		}
		var sum float64
		n := 1200
		for i := 0; i < n; i++ {
			c2.Cue(fom.MotionCue{SpecificForce: mathx.V3(0, -9.81, 0), Vibration: intensity}, dt)
			s := c2.Step(dt)
			sum += s.Pose.Heave * s.Pose.Heave
		}
		tbl3.AddRow(intensity, math.Sqrt(sum/float64(n)))
	}
	fmt.Print(tbl3.String())
	return nil
}

// exp5Dynamics measures the hook's inertia-oscillation decay after a boom
// stop (§3.6) and the multi-level collision detection ablation (ref [10]).
func exp5Dynamics(quick bool) error {
	// --- Hook oscillation decay. ---
	hs := make([]float64, 101*101)
	ter, err := terrain.New(101, 101, 2, hs)
	if err != nil {
		return err
	}
	model, err := dynamics.New(dynamics.DefaultConfig(), ter, mathx.V3(100, 0, 100), 0)
	if err != nil {
		return err
	}
	const dt = 1.0 / 60
	// Raise the boom, slew hard for 2 s, release.
	for i := 0; i < 60*5; i++ {
		model.Step(fom.ControlInput{Ignition: true, BoomJoyY: 1}, dt)
	}
	for i := 0; i < 60*2; i++ {
		model.Step(fom.ControlInput{Ignition: true, BoomJoyX: 1}, dt)
	}
	fmt.Println("hook lateral swing amplitude after boom stop (4 s windows):")
	tbl := metrics.NewTable("window (s)", "peak amplitude (m)")
	windows := 6
	if quick {
		windows = 3
	}
	var first, last float64
	for wdx := 0; wdx < windows; wdx++ {
		peak := 0.0
		for i := 0; i < 60*4; i++ {
			model.Step(fom.ControlInput{Ignition: true}, dt)
			st := model.State()
			tip := model.BoomTip()
			lat := math.Hypot(st.HookPos.X-tip.X, st.HookPos.Z-tip.Z)
			if lat > peak {
				peak = lat
			}
		}
		tbl.AddRow(fmt.Sprintf("%d-%d", wdx*4, (wdx+1)*4), peak)
		if wdx == 0 {
			first = peak
		}
		last = peak
	}
	fmt.Print(tbl.String())
	if first > 0 {
		fmt.Printf("decay over %d s: %.1f%% of the initial amplitude remains\n",
			windows*4, last/first*100)
	}

	// --- Multi-level collision ablation. ---
	fmt.Println("\nmulti-level collision detection vs brute force (one FindContacts pass):")
	tbl2 := metrics.NewTable("objects", "multi-level tri-checks", "brute tri-checks", "speedup ×", "ml time (µs)", "brute time (µs)")
	sweep := []int{10, 20, 40, 80}
	if quick {
		sweep = []int{10, 40}
	}
	for _, n := range sweep {
		mlChecks, mlTime := collisionPass(n, false)
		bfChecks, bfTime := collisionPass(n, true)
		speed := float64(bfTime) / float64(mlTime)
		tbl2.AddRow(n, mlChecks, bfChecks, speed,
			float64(mlTime)/1e3, float64(bfTime)/1e3)
	}
	fmt.Print(tbl2.String())
	return nil
}

func collisionPass(objects int, brute bool) (triChecks int64, elapsed time.Duration) {
	w := &collision.World{BruteForce: brute}
	for i := 0; i < objects; i++ {
		o := collision.NewObject(fmt.Sprintf("o%d", i), collision.BoxMesh(0.5, 0.5, 0.5))
		pos := mathx.V3(float64(i%10)*4, 0, float64(i/10)*4)
		if i%10 == 9 { // a few touching pairs so L3 actually runs
			pos.X -= 3.4
		}
		o.SetPose(pos, mathx.QuatIdentity())
		w.Add(o)
	}
	start := time.Now()
	const reps = 20
	for r := 0; r < reps; r++ {
		w.FindContacts()
	}
	return w.Stats().TriChecks / reps, time.Since(start) / reps
}

// exp6Exam reproduces the licensing exam of Fig. 8/9 with the status-window
// stream of Fig. 5: a clean autopilot run and a careless run that drags the
// cargo through the bars.
func exp6Exam(quick bool) error {
	fmt.Println("clean autopilot run:")
	if err := examRun(false, quick); err != nil {
		return err
	}
	fmt.Println("\ncareless run (cargo dragged at bar height):")
	return examRun(true, quick)
}

func examRun(careless bool, quick bool) error {
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		return err
	}
	course := scenario.DefaultCourse()
	model, err := dynamics.New(dynamics.DefaultConfig(), ter, course.Start, course.StartYaw)
	if err != nil {
		return err
	}
	cargoPos := course.Circle
	cargoPos.Y = ter.HeightAt(cargoPos.X, cargoPos.Z) + 0.6
	model.PlaceCargo(cargoPos, course.CargoMass)

	spec := scenario.SpecFromCourse("exam", "Licensing exam", course)
	eng, err := scenario.NewEngineSpec(spec, crane.DefaultSpec())
	if err != nil {
		return err
	}
	eng.Start()
	ap := trace.New(spec)

	const dt = 1.0 / 60
	tbl := metrics.NewTable("t (s)", "phase", "score", "collisions", "swing°", "luff°", "cable m", "boom m")
	nextLog := 0.0
	logEvery := 10.0
	for simT := 0.0; simT < 600; simT += dt {
		st := model.State()
		scen := eng.State()
		if simT >= nextLog || scen.Phase == fom.PhaseComplete || scen.Phase == fom.PhaseFailed {
			r := crane.DefaultSpec().StatusReport(st, scen.Score, eng.ExtraAlarms())
			tbl.AddRow(simT, scen.Phase.String(), scen.Score, scen.Collisions,
				r.SwingDeg, r.LuffDeg, r.CableLen, r.BoomLen)
			nextLog += logEvery
		}
		if scen.Phase == fom.PhaseComplete || scen.Phase == fom.PhaseFailed {
			break
		}
		in := ap.Control(st, scen, dt)
		if careless && scen.Phase == fom.PhaseTraverse {
			// Pay the cable out so the cargo flies at bar height.
			in.HoistJoyY = mathx.Clamp(st.CargoPos.Y-1.2, -1, 1)
		}
		model.Step(in, dt)
		eng.Step(model.State(), dt)
	}
	fmt.Print(tbl.String())
	final := eng.State()
	fmt.Printf("result: %s, score %.1f, %d bar collisions, %.0f s\n",
		final.Phase, final.Score, final.Collisions, final.Elapsed)
	return nil
}
