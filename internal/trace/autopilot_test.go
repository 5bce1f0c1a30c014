package trace

import (
	"testing"

	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/scenario"
)

// TestAutopilotCompletesExam is the closed-loop end-to-end check: the
// synthetic trainee must drive to the test ground, lift the cargo, carry
// it through the whole trajectory and set it back down, passing the exam.
func TestAutopilotCompletesExam(t *testing.T) {
	course := scenario.DefaultCourse()
	rig := newCourseRig(t, course)
	model, eng, ap := rig.model, rig.eng, rig.ap

	const (
		dt     = 1.0 / 60
		maxSim = 600.0 // sim seconds before declaring a hang
	)
	var simT float64
	var lastPhase fom.Phase
	for simT = 0; simT < maxSim; simT += dt {
		st := model.State()
		scen := eng.State()
		if scen.Phase != lastPhase {
			t.Logf("t=%6.1f phase=%v score=%.1f msg=%q", simT, scen.Phase, scen.Score, scen.Message)
			lastPhase = scen.Phase
		}
		if scen.Phase == fom.PhaseComplete || scen.Phase == fom.PhaseFailed {
			break
		}
		in := ap.Control(st, scen, dt)
		model.Step(in, dt)
		eng.Step(model.State(), dt)
	}

	final := eng.State()
	st := model.State()
	if final.Phase != fom.PhaseComplete {
		t.Fatalf("exam did not complete: phase=%v score=%.1f waypoint=%d/%d msg=%q "+
			"pos=%v hook=%v cargoHeld=%v after %.0f s",
			final.Phase, final.Score, final.Waypoint, len(course.Waypoints),
			final.Message, st.Position, st.HookPos, st.CargoHeld, simT)
	}
	if final.Score < scenario.DefaultScore().PassMark {
		t.Errorf("score = %.1f below pass mark", final.Score)
	}
	if final.Collisions != 0 {
		t.Errorf("autopilot hit %d bars (carries above them)", final.Collisions)
	}
	if simT > course.ParTime+120 {
		t.Errorf("exam took %.0f s, want near par %v", simT, course.ParTime)
	}
	t.Logf("exam complete: %.1f points in %.1f s", final.Score, simT)
}

// TestAutopilotCompletesAdvancedCourse proves the harder shipped course
// (six bars, heavier cargo, tighter gates) is actually completable.
func TestAutopilotCompletesAdvancedCourse(t *testing.T) {
	course := scenario.AdvancedCourse()
	rig := newCourseRig(t, course)
	model, eng, ap := rig.model, rig.eng, rig.ap

	const dt = 1.0 / 60
	var simT float64
	for simT = 0; simT < 600; simT += dt {
		scen := eng.State()
		if scen.Phase == fom.PhaseComplete || scen.Phase == fom.PhaseFailed {
			break
		}
		in := ap.Control(model.State(), scen, dt)
		model.Step(in, dt)
		eng.Step(model.State(), dt)
	}
	final := eng.State()
	if final.Phase != fom.PhaseComplete {
		t.Fatalf("advanced exam: phase=%v score=%.1f wp=%d/%d msg=%q after %.0f s",
			final.Phase, final.Score, final.Waypoint, len(course.Waypoints),
			final.Message, simT)
	}
	if final.Collisions != 0 {
		t.Errorf("autopilot hit %d bars on the advanced course", final.Collisions)
	}
	t.Logf("advanced exam complete: %.1f points in %.1f s", final.Score, simT)
}

// TestAutopilotIdleAndDone covers the trivial phases.
func TestAutopilotIdleAndDone(t *testing.T) {
	course := scenario.DefaultCourse()
	ap := New(scenario.SpecFromCourse("exam", "Licensing exam", course))
	in := ap.Control(fom.CraneState{}, fom.ScenarioState{Phase: fom.PhaseIdle}, 0.1)
	if !in.Ignition {
		t.Error("idle should keep ignition on")
	}
	in = ap.Control(fom.CraneState{}, fom.ScenarioState{Phase: fom.PhaseComplete}, 0.1)
	if in.Ignition {
		t.Error("complete should shut the engine off")
	}
}

// TestAutopilotDriveSteersTowardTarget checks the drive controller's
// steering sense without running the full exam.
func TestAutopilotDriveSteersTowardTarget(t *testing.T) {
	course := scenario.DefaultCourse()
	ap := New(scenario.SpecFromCourse("exam", "Licensing exam", course))
	// Carrier north-west of the target, facing north (away): must steer
	// hard to come about, with throttle applied.
	st := fom.CraneState{Position: mathx.V3(course.DriveTarget.X-50, 0, course.DriveTarget.Z-50)}
	in := ap.Control(st, fom.ScenarioState{Phase: fom.PhaseDriving}, 0.1)
	if in.Gear != 1 || in.Throttle <= 0 {
		t.Errorf("no forward drive: %+v", in)
	}
	if in.Steering == 0 {
		t.Error("no steering toward target")
	}
}
