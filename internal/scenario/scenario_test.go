package scenario

import (
	"math"
	"strings"
	"testing"

	"codsim/internal/crane"
	"codsim/internal/fom"
	"codsim/internal/mathx"
)

func newEngine(t *testing.T) *Engine {
	return newExamEngine(t, DefaultScore())
}

// newExamEngine builds an engine for the classic exam over the default
// course, scored by cfg.
func newExamEngine(t *testing.T, cfg ScoreConfig) *Engine {
	t.Helper()
	spec := SpecFromCourse("exam", "Licensing exam", DefaultCourse())
	spec.Score = cfg
	e, err := NewEngineSpec(spec, crane.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// stateAt returns a quiet crane state with the carrier at pos and the hook
// and cargo hovering safely above it.
func stateAt(pos mathx.Vec3) fom.CraneState {
	return fom.CraneState{
		Position:  pos,
		BoomLuff:  mathx.Rad(45),
		BoomLen:   12,
		CableLen:  4,
		HookPos:   pos.Add(mathx.V3(0, 8, -8)),
		CargoPos:  pos.Add(mathx.V3(0, 7, -8)),
		Stability: 0.9,
		EngineOn:  true,
	}
}

func TestDefaultCourseGeometry(t *testing.T) {
	c := DefaultCourse()
	if len(c.Bars) != 4 {
		t.Errorf("bars = %d, want 4", len(c.Bars))
	}
	if len(c.Waypoints) < 7 {
		t.Errorf("waypoints = %d, want out-and-back course", len(c.Waypoints))
	}
	// Last waypoint returns to the circle.
	last := c.Waypoints[len(c.Waypoints)-1]
	if last.Dist(c.Circle) > 1e-9 {
		t.Errorf("course does not return to circle: %v", last)
	}
	// Bars sit between the circle and the far turn.
	for _, b := range c.Bars {
		if b.Pos.X <= c.Circle.X || b.Pos.X >= c.Circle.X+15 {
			t.Errorf("bar %s at %v outside trajectory band", b.Name, b.Pos)
		}
	}
	if c.CargoMass <= 0 || c.ParTime <= 0 {
		t.Error("degenerate course parameters")
	}
}

func TestAdvancedCourseGeometry(t *testing.T) {
	c := AdvancedCourse()
	if len(c.Bars) != 6 {
		t.Errorf("bars = %d, want 6", len(c.Bars))
	}
	if c.CargoMass <= DefaultCourse().CargoMass {
		t.Error("advanced course should carry heavier cargo")
	}
	if c.ParTime >= DefaultCourse().ParTime {
		t.Error("advanced course should have tighter par time")
	}
	if c.WaypointRadius >= DefaultCourse().WaypointRadius {
		t.Error("advanced course should have tighter gates")
	}
	last := c.Waypoints[len(c.Waypoints)-1]
	if last.Dist(c.Circle) > 1e-9 {
		t.Errorf("advanced course does not return to circle: %v", last)
	}
	// Every waypoint stays within the default crane's reach from the
	// parking spot (pivot radius 5.6–15.7 m at the working luff).
	for i, wp := range c.Waypoints {
		d := wp.Sub(c.DriveTarget)
		r := mathx.V3(d.X, 0, d.Z).Len()
		if r < 4.5 || r > 15.7 {
			t.Errorf("waypoint %d at radius %.1f outside reach envelope", i, r)
		}
	}
}

func TestPhaseFlowHappyPath(t *testing.T) {
	e := newEngine(t)
	if e.Phase() != fom.PhaseIdle {
		t.Fatalf("initial phase = %v", e.Phase())
	}
	// Stepping while idle does nothing.
	if ev := e.Step(stateAt(e.course.Start), 0.1); ev != nil {
		t.Errorf("idle events = %v", ev)
	}
	e.Start()
	if e.Phase() != fom.PhaseDriving {
		t.Fatalf("phase after start = %v", e.Phase())
	}

	// Arrive at the test ground.
	ev := e.Step(stateAt(e.course.DriveTarget), 0.1)
	if e.Phase() != fom.PhaseLifting {
		t.Fatalf("phase = %v, want lifting", e.Phase())
	}
	if len(ev) == 0 || ev[len(ev)-1].Kind != EventPhaseChange {
		t.Errorf("events = %v, want phase change", ev)
	}

	// Latch the cargo.
	st := stateAt(e.course.DriveTarget)
	st.CargoHeld = true
	e.Step(st, 0.1)
	if e.Phase() != fom.PhaseTraverse {
		t.Fatalf("phase = %v, want traverse", e.Phase())
	}

	// Fly the cargo high above every waypoint (clear of the bars).
	for _, wp := range e.course.Waypoints {
		st.CargoPos = wp.Add(mathx.V3(0, 6, 0))
		st.HookPos = st.CargoPos.Add(mathx.V3(0, 1, 0))
		e.Step(st, 1)
	}
	if e.Phase() != fom.PhaseReturn {
		t.Fatalf("phase = %v, want return (waypoint %d)", e.Phase(), e.State().Waypoint)
	}

	// Set it down inside the circle and release.
	st.CargoPos = e.course.Circle.Add(mathx.V3(0, 0.5, 0))
	st.CargoHeld = false
	e.Step(st, 0.1)
	if e.Phase() != fom.PhaseComplete {
		t.Fatalf("phase = %v, want complete; msg=%q", e.Phase(), e.State().Message)
	}
	if e.Score() != DefaultScore().Initial {
		t.Errorf("clean run score = %v, want %v", e.Score(), DefaultScore().Initial)
	}
}

func TestBarCollisionDeductsOncePerEpisode(t *testing.T) {
	e := newEngine(t)
	e.Start()
	st := stateAt(e.course.DriveTarget)
	e.Step(st, 0.1) // → lifting
	st.CargoHeld = true
	e.Step(st, 0.1) // → traverse

	// Drag the cargo straight through bar A for several ticks.
	bar := e.course.Bars[0]
	st.CargoPos = bar.Pos
	st.HookPos = bar.Pos.Add(mathx.V3(0, 1.5, 0))
	before := e.Score()
	var hits int
	for i := 0; i < 10; i++ {
		for _, ev := range e.Step(st, 0.05) {
			if ev.Kind == EventBarCollision {
				hits++
				if ev.Bar != bar.Name {
					t.Errorf("hit bar %q, want %q", ev.Bar, bar.Name)
				}
			}
		}
	}
	if hits != 1 {
		t.Errorf("contact episodes = %d, want 1 (debounced)", hits)
	}
	if got := before - e.Score(); math.Abs(got-DefaultScore().BarHit) > 1e-9 {
		t.Errorf("deduction = %v, want %v", got, DefaultScore().BarHit)
	}
	if e.State().Collisions != 1 {
		t.Errorf("collision count = %d", e.State().Collisions)
	}
	if !e.ExtraAlarms().Has(fom.AlarmCollision) {
		t.Error("collision alarm not latched")
	}

	// Move away, then hit again: a second episode counts.
	st.CargoPos = bar.Pos.Add(mathx.V3(0, 10, 0))
	st.HookPos = st.CargoPos
	e.Step(st, 0.05)
	st.CargoPos = bar.Pos
	st.HookPos = bar.Pos.Add(mathx.V3(0, 1.5, 0))
	for _, ev := range e.Step(st, 0.05) {
		if ev.Kind == EventBarCollision {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("episodes after re-contact = %d, want 2", hits)
	}
}

func TestCargoDroppedMidCourse(t *testing.T) {
	e := newEngine(t)
	e.Start()
	st := stateAt(e.course.DriveTarget)
	e.Step(st, 0.1)
	st.CargoHeld = true
	e.Step(st, 0.1)
	if e.Phase() != fom.PhaseTraverse {
		t.Fatal("not in traverse")
	}
	before := e.Score()
	st.CargoHeld = false
	e.Step(st, 0.1)
	if e.Phase() != fom.PhaseLifting {
		t.Errorf("phase = %v, want back to lifting", e.Phase())
	}
	if e.Score() >= before {
		t.Error("dropping cargo cost nothing")
	}
}

func TestSafetyAlarmDeduction(t *testing.T) {
	e := newEngine(t)
	e.Start()
	st := stateAt(e.course.Start)
	e.Step(st, 0.1)
	before := e.Score()
	// Trip the overspeed alarm.
	st.Speed = crane.DefaultSpec().MaxSpeed + 3
	ev := e.Step(st, 0.1)
	foundAlarm := false
	for _, x := range ev {
		if x.Kind == EventAlarmRaised {
			foundAlarm = true
		}
	}
	if !foundAlarm {
		t.Fatal("no alarm event")
	}
	if got := before - e.Score(); math.Abs(got-DefaultScore().SafetyAlarm) > 1e-9 {
		t.Errorf("deduction = %v", got)
	}
	// Holding the alarm does not deduct again.
	mid := e.Score()
	e.Step(st, 0.1)
	if e.Score() != mid {
		t.Error("sustained alarm deducted repeatedly")
	}
}

func TestOvertimePenaltyAndFail(t *testing.T) {
	cfg := DefaultScore()
	cfg.PassMark = 99.9 // make any overtime fail
	e := newExamEngine(t, cfg)
	e.Start()
	st := stateAt(e.course.DriveTarget)
	e.Step(st, 0.1)
	st.CargoHeld = true
	e.Step(st, 0.1)
	for _, wp := range e.course.Waypoints {
		st.CargoPos = wp.Add(mathx.V3(0, 6, 0))
		st.HookPos = st.CargoPos
		e.Step(st, 200) // very slow trainee: way past par time
	}
	st.CargoPos = e.course.Circle.Add(mathx.V3(0, 0.5, 0))
	st.CargoHeld = false
	e.Step(st, 0.1)
	if e.Phase() != fom.PhaseFailed {
		t.Errorf("phase = %v, want failed (score %v)", e.Phase(), e.Score())
	}
	if e.Score() >= cfg.Initial {
		t.Error("no overtime penalty applied")
	}
}

func TestReset(t *testing.T) {
	e := newEngine(t)
	e.Start()
	st := stateAt(e.course.DriveTarget)
	st.Speed = 99 // trip alarm, lose points
	e.Step(st, 5)
	if e.Score() == DefaultScore().Initial {
		t.Fatal("setup failed to deduct")
	}
	e.Reset()
	s := e.State()
	if s.Phase != fom.PhaseIdle || s.Score != DefaultScore().Initial ||
		s.Elapsed != 0 || s.Collisions != 0 {
		t.Errorf("after reset: %+v", s)
	}
	if e.ExtraAlarms() != 0 {
		t.Error("alarms survived reset")
	}
}

func TestScoreFloorsAtZero(t *testing.T) {
	cfg := DefaultScore()
	cfg.SafetyAlarm = 1000
	e := newExamEngine(t, cfg)
	e.Start()
	st := stateAt(e.course.Start)
	st.Speed = 99
	e.Step(st, 0.1)
	if e.Score() < 0 {
		t.Errorf("score = %v, want floored at 0", e.Score())
	}
}

func TestStateMessageUpdates(t *testing.T) {
	e := newEngine(t)
	e.Start()
	e.Step(stateAt(e.course.Start), 0.1)
	if msg := e.State().Message; !strings.Contains(msg, "drive") {
		t.Errorf("driving message = %q", msg)
	}
	if got := e.State().Phase; got != fom.PhaseDriving {
		t.Errorf("phase = %v", got)
	}
}
