package trace

import (
	"testing"

	"codsim/internal/crane"
	"codsim/internal/dynamics"
	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/terrain"
)

// courseRig is one fresh single-crane rig on a freshly generated site,
// with the engine started on a course's classic exam and an autopilot to
// fly it.
type courseRig struct {
	model *dynamics.Model
	eng   *scenario.Engine
	ap    *Autopilot
}

func newCourseRig(t *testing.T, course scenario.Course) *courseRig {
	t.Helper()
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		t.Fatal(err)
	}
	model, err := dynamics.New(dynamics.DefaultConfig(), ter, course.Start, course.StartYaw)
	if err != nil {
		t.Fatal(err)
	}
	cargoPos := course.Circle
	cargoPos.Y = ter.HeightAt(cargoPos.X, cargoPos.Z) + 0.6
	model.PlaceCargo(cargoPos, course.CargoMass)
	spec := scenario.SpecFromCourse("exam", "Licensing exam", course)
	eng, err := scenario.NewEngineSpec(spec, crane.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	return &courseRig{model: model, eng: eng, ap: New(spec)}
}

// TestRecordedExamReplaysIdentically records the autopilot's control frame
// for every tick of a live exam and replays them into a completely fresh
// simulation: because the physics is deterministic fixed-step, the replay
// must reproduce the same final phase, score, collision count and crane
// position.
func TestRecordedExamReplaysIdentically(t *testing.T) {
	const dt = 1.0 / 60
	course := scenario.DefaultCourse()

	// --- Live run with recording. ---
	live := newCourseRig(t, course)
	var inputs []fom.ControlInput
	for simT := 0.0; simT < 600; simT += dt {
		scen := live.eng.State()
		if scen.Phase == fom.PhaseComplete || scen.Phase == fom.PhaseFailed {
			break
		}
		in := live.ap.Control(live.model.State(), scen, dt)
		inputs = append(inputs, in)
		live.model.Step(in, dt)
		live.eng.Step(live.model.State(), dt)
	}
	liveFinal := live.eng.State()
	if liveFinal.Phase != fom.PhaseComplete {
		t.Fatalf("live run did not complete: %v", liveFinal.Phase)
	}
	t.Logf("recorded %d control frames", len(inputs))

	// --- Replay into a fresh world. ---
	replay := newCourseRig(t, course)
	for _, in := range inputs {
		replay.model.Step(in, dt)
		replay.eng.Step(replay.model.State(), dt)
	}
	replayFinal := replay.eng.State()

	if replayFinal.Phase != liveFinal.Phase {
		t.Errorf("replay phase = %v, live = %v", replayFinal.Phase, liveFinal.Phase)
	}
	if replayFinal.Score != liveFinal.Score {
		t.Errorf("replay score = %v, live = %v", replayFinal.Score, liveFinal.Score)
	}
	if replayFinal.Collisions != liveFinal.Collisions {
		t.Errorf("replay collisions = %v, live = %v", replayFinal.Collisions, liveFinal.Collisions)
	}
	// The crane must end in the same place too, not just the same score.
	liveState := live.model.State()
	replayState := replay.model.State()
	if liveState.Position.Dist(replayState.Position) > 1e-6 {
		t.Errorf("replay position %v diverged from live %v",
			replayState.Position, liveState.Position)
	}
}
