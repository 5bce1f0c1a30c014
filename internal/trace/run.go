package trace

import (
	"context"
	"errors"
	"fmt"

	"codsim/internal/crane"
	"codsim/internal/dynamics"
	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/terrain"
)

// ErrIncomplete marks a run that reached neither terminal phase within its
// sim-time budget: the trainee was still working when time ran out.
// RunSkill's timeout error wraps it, so callers can tell "did not finish"
// apart from setup failures and cancellation with errors.Is.
var ErrIncomplete = errors.New("scenario incomplete within sim-time budget")

// ErrStalled marks a dry-run aborted by the early-exit check: no crane's
// phase cursor advanced within the stall budget, so the run could not have
// completed no matter how much budget remained. It wraps ErrIncomplete, so
// every caller that already treats "incomplete" as a failed verdict (not a
// fault) handles stalls identically.
var ErrStalled = fmt.Errorf("no phase progress within the stall budget: %w", ErrIncomplete)

// DefaultStallBudget is the early-exit window, in simulated seconds, that
// Completable applies to oracle dry-runs. Calibration: the longest gap
// between phase-cursor advances across the shipped library flown by the
// slowest supported trainee (the novice preset) is ~71 sim-seconds — the
// heavy-derate carry leg — so 180 s is ~2.5× that worst legitimate gap.
// The expert the oracle actually flies progresses faster still; the
// calibration test in this package measures the gap, and a verdict-
// equivalence sweep over the library and a generated corpus backs the
// margin (see gen's oracle tests).
const DefaultStallBudget = 180.0

// RunResult reports one headless scenario run.
type RunResult struct {
	Scenario string
	State    fom.ScenarioState // terminal combined scenario state
	SimTime  float64           // simulated seconds consumed
	Passed   bool
	Alarms   uint32 // alarm lamps raised during the run (engine count)
}

// Runner owns the reusable scratch of one headless running goroutine: the
// per-crane state slices a run steps over. Reusing a Runner across many
// runs (a campaign worker slot, an oracle certification loop) keeps the
// steady-state stepping path free of allocations; the zero value is ready
// to use. Not safe for concurrent use — one Runner per goroutine.
type Runner struct {
	// StallBudget, when positive, aborts a run with ErrStalled once no
	// crane's phase cursor has advanced for that many simulated seconds.
	// Zero disables the early exit: the run uses its full maxSim budget,
	// exactly as the pre-early-exit semantics. Completable sets
	// DefaultStallBudget; sweeps that fly deliberately slow trainees keep 0.
	StallBudget float64

	states []fom.CraneState
	models []*dynamics.Model
	pilots []*Autopilot
}

// NewRunner returns an empty Runner. Equivalent to new(Runner); the
// constructor exists for call-site clarity.
func NewRunner() *Runner { return &Runner{} }

// RunSkill executes a scenario spec headless — one dynamics rig and one
// autopilot per declared crane coupled directly to the engine at 60 Hz,
// no federation — until the scenario reaches a terminal phase or maxSim
// simulated seconds elapse. Every crane's autopilot flies with the given
// trainee skill profile (the zero profile is the classic expert);
// sweeping the presets over a scenario matrix yields realistic score
// distributions instead of near-perfect runs. A canceled context stops
// the stepping loop within one simulated second and returns ctx.Err()
// with the state reached so far. This is the fast path for regression
// tables and batch runs; the cluster path in package sim runs the same
// spec across the full federation. Callers running many scenarios reuse
// one Runner instead.
func RunSkill(ctx context.Context, spec scenario.Spec, maxSim float64, skill SkillProfile) (RunResult, error) {
	return (&Runner{}).RunSkill(ctx, spec, maxSim, skill)
}

// RunSkill runs one scenario on the Runner's scratch; see the package
// function of the same name for semantics. The shared default site is
// used for every run, and the engine runs with live status text off —
// messages still mark every phase transition, they just skip the per-tick
// distance refresh no headless consumer reads.
func (r *Runner) RunSkill(ctx context.Context, spec scenario.Spec, maxSim float64, skill SkillProfile) (RunResult, error) {
	res := RunResult{Scenario: spec.Name}
	ter := terrain.DefaultMap()
	decls := spec.CraneDecls()
	world := dynamics.NewWorld()
	models := r.grow(len(decls))
	var err error
	for c, d := range decls {
		models[c], err = dynamics.NewCrane(dynamics.DefaultConfig(), ter, world, d.Start, d.StartYaw, c)
		if err != nil {
			return res, err
		}
		r.pilots[c] = ForCrane(spec, c)
		r.pilots[c].SetSkill(skill)
	}
	spec.Install(ter, models...)

	eng, err := scenario.NewEngineSpec(spec, crane.DefaultSpec())
	if err != nil {
		return res, err
	}
	eng.SetLiveStatus(false)
	eng.Start()

	const dt = 1.0 / 60
	steps := 0
	pilots, states := r.pilots, r.states
	for c, m := range models {
		states[c] = m.State()
	}
	progress, progressAt := eng.Progress(), 0.0
	for res.SimTime = 0; res.SimTime < maxSim; res.SimTime += dt {
		// Checking the context (and the stall window) every simulated
		// second keeps the hot loop free of per-step synchronization.
		if steps%60 == 0 {
			if ctx.Err() != nil {
				res.State = eng.State()
				res.Alarms = eng.AlarmEvents()
				return res, ctx.Err()
			}
			if r.StallBudget > 0 {
				if p := eng.Progress(); p != progress {
					progress, progressAt = p, res.SimTime
				} else if res.SimTime-progressAt >= r.StallBudget {
					res.State = eng.State()
					res.Alarms = eng.AlarmEvents()
					return res, fmt.Errorf("trace: scenario %s still %v at %.0f sim-seconds (%s): %w",
						spec.Name, res.State.Phase, res.SimTime, res.State.Message, ErrStalled)
				}
			}
		}
		steps++
		if p := eng.Phase(); p == fom.PhaseComplete || p == fom.PhaseFailed {
			break
		}
		// states[c] still holds crane c's post-step state from the previous
		// tick — exactly what m.State() would return here — so the pilot
		// reads it instead of copying the state out of the model twice.
		for c, m := range models {
			in := pilots[c].Control(states[c], eng.StateFor(c), dt)
			in.CraneID = int64(c)
			m.Step(in, dt)
			states[c] = m.State()
		}
		eng.StepAll(states, dt)
	}
	res.State = eng.State()
	res.Alarms = eng.AlarmEvents()
	res.Passed = res.State.Phase == fom.PhaseComplete
	if res.State.Phase != fom.PhaseComplete && res.State.Phase != fom.PhaseFailed {
		return res, fmt.Errorf("trace: scenario %s still %v after %.0f sim-seconds (%s): %w",
			spec.Name, res.State.Phase, maxSim, res.State.Message, ErrIncomplete)
	}
	return res, nil
}

// grow resizes the Runner's scratch slices for n cranes and returns the
// model slice; previous contents are dropped.
func (r *Runner) grow(n int) []*dynamics.Model {
	if cap(r.models) < n {
		r.models = make([]*dynamics.Model, n)
		r.pilots = make([]*Autopilot, n)
		r.states = make([]fom.CraneState, n)
	}
	r.models = r.models[:n]
	r.pilots = r.pilots[:n]
	r.states = r.states[:n]
	return r.models
}

// Completable is the completability oracle's dry-run entry point: it flies
// the spec headless with the flawless expert autopilot and reports whether
// the scenario was passed within maxSim simulated seconds. The run early-
// exits (verdict false) once no phase cursor advances for
// DefaultStallBudget simulated seconds — a hopeless candidate costs a
// stall window, not the full budget, and the novice-calibrated window
// cannot fire on a run an expert could still complete. ok is false both
// for a failed verdict (score under the pass mark) and for a run that
// never reached a terminal phase; err carries only genuine faults — a spec
// or rig that cannot be built, or ctx canceled mid-run — so a campaign
// generator can resample on !ok and abort on err.
func Completable(ctx context.Context, spec scenario.Spec, maxSim float64) (RunResult, bool, error) {
	res, err := (&Runner{StallBudget: DefaultStallBudget}).RunSkill(ctx, spec, maxSim, SkillProfile{})
	if errors.Is(err, ErrIncomplete) {
		return res, false, nil
	}
	if err != nil {
		return res, false, err
	}
	return res, res.Passed, nil
}
