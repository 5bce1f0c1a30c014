// Package dynamics implements the dynamic module of §3.6: the physics that
// makes the simulator "high fidelity". It integrates, at a fixed step,
//
//   - the carrier (truck) dynamics: engine, gas and brake pedals, steering,
//     slope resistance, and terrain following of the ground posture;
//   - the derrick boom kinematics: rate-limited swing (slew), luff (raise),
//     telescope and hoist axes driven by the two joysticks;
//   - the inertia oscillation of the lift hook: the plumb cable is a
//     pendulum with a moving pivot (the boom tip), so boom motion swings
//     the hook, and after the boom stops the hook keeps oscillating until
//     drag brings it to rest — exactly the behaviour the paper calls out;
//   - the tip-over stability margin, since a mobile crane's high center of
//     gravity makes both driving and lifting hazardous.
//
// The module also produces the motion cues (specific force and angular
// rates) consumed by the Stewart-platform controller (§3.4).
package dynamics

import (
	"fmt"
	"math"

	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/terrain"
)

// Gravity is the gravitational acceleration used throughout (m/s²).
const Gravity = 9.81

// Config holds the physical parameters of the simulated mobile crane. Use
// DefaultConfig as the base; all values are SI.
type Config struct {
	// Carrier.
	Mass           float64 // kg, carrier + superstructure
	Wheelbase      float64 // m
	Track          float64 // m
	MaxEngineForce float64 // N at full throttle
	MaxBrakeForce  float64 // N at full brake
	MaxSpeed       float64 // m/s forward
	MaxReverse     float64 // m/s backward
	MaxSteer       float64 // rad, wheel angle at full lock
	RollResist     float64 // N/(m/s) rolling + drivetrain resistance
	IdleRPM        float64
	MaxRPM         float64

	// Boom geometry and actuation.
	BoomPivot  mathx.Vec3 // boom foot in carrier frame (origin at ground center)
	SwingRate  float64    // rad/s at full joystick
	LuffRate   float64    // rad/s
	TeleRate   float64    // m/s
	HoistRate  float64    // m/s
	LuffMin    float64    // rad
	LuffMax    float64    // rad
	BoomLenMin float64    // m
	BoomLenMax float64    // m
	CableMin   float64    // m
	CableMax   float64    // m
	ControlLag float64    // s, first-order actuator lag

	// Suspended load.
	HookMass  float64 // kg
	CableDrag float64 // 1/s, linear velocity damping at hook mass
	LatchDist float64 // m, max hook-to-cargo distance for latching
	// WindResponse couples the hook to the site wind (SetWind): the
	// fraction per second by which the hook's velocity relaxes toward the
	// wind velocity, before the suspended-mass derate. 0 disables wind.
	WindResponse float64 // 1/s

	// Stability.
	TipMomentMax float64 // N·m, load moment that fully consumes the margin
}

// DefaultConfig returns parameters approximating a 25-tonne telescopic
// truck crane.
func DefaultConfig() Config {
	return Config{
		Mass:           24000,
		Wheelbase:      4.2,
		Track:          2.5,
		MaxEngineForce: 65000,
		MaxBrakeForce:  90000,
		MaxSpeed:       13.9, // ~50 km/h
		MaxReverse:     4.2,
		MaxSteer:       mathx.Rad(35),
		RollResist:     2600,
		IdleRPM:        650,
		MaxRPM:         2400,

		BoomPivot:  mathx.V3(0, 2.4, 1.0),
		SwingRate:  mathx.Rad(18),
		LuffRate:   mathx.Rad(9),
		TeleRate:   0.9,
		HoistRate:  1.4,
		LuffMin:    mathx.Rad(12),
		LuffMax:    mathx.Rad(80),
		BoomLenMin: 10.2,
		BoomLenMax: 26.0,
		CableMin:   1.0,
		CableMax:   28.0,
		ControlLag: 0.35,

		HookMass:     250,
		CableDrag:    0.28,
		LatchDist:    1.6,
		WindResponse: 0.35,

		TipMomentMax: 9.0e5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Mass <= 0:
		return fmt.Errorf("dynamics: Mass %v", c.Mass)
	case c.Wheelbase <= 0 || c.Track <= 0:
		return fmt.Errorf("dynamics: footprint %vx%v", c.Wheelbase, c.Track)
	case c.LuffMin >= c.LuffMax:
		return fmt.Errorf("dynamics: luff range [%v,%v]", c.LuffMin, c.LuffMax)
	case c.BoomLenMin >= c.BoomLenMax:
		return fmt.Errorf("dynamics: boom range [%v,%v]", c.BoomLenMin, c.BoomLenMax)
	case c.CableMin >= c.CableMax:
		return fmt.Errorf("dynamics: cable range [%v,%v]", c.CableMin, c.CableMax)
	case c.HookMass <= 0:
		return fmt.Errorf("dynamics: HookMass %v", c.HookMass)
	case c.TipMomentMax <= 0:
		return fmt.Errorf("dynamics: TipMomentMax %v", c.TipMomentMax)
	}
	return nil
}

// Event is a discrete occurrence surfaced by Step for the audio and
// scenario modules.
type Event int

// Events. Values start at 1; 0 is invalid.
const (
	EventEngineStarted Event = iota + 1
	EventEngineStopped
	EventCargoLatched
	EventCargoReleased
)

// Model integrates the crane. Not safe for concurrent use: it belongs to
// the dynamics LP's tick loop.
type Model struct {
	cfg Config
	ter *terrain.Map

	// Carrier.
	pos      mathx.Vec3
	heading  float64
	speed    float64
	pitch    float64
	roll     float64
	prevYawR float64
	accelFwd float64
	engineOn bool
	rpm      float64

	// Boom axes: position + actual (lagged) rate.
	swing, swingV  float64
	luff, luffV    float64
	boomLen, lenV  float64
	cableLen, cabV float64
	prevTip        mathx.Vec3
	prevTipVel     mathx.Vec3
	havePrevTip    bool

	// Suspended load.
	hookPos   mathx.Vec3
	hookVel   mathx.Vec3
	cargoHeld bool
	cargoMass float64    // this rig's share of the latched load (kg)
	cargoPos  mathx.Vec3 // carried or last-touched resting position
	latchArm  bool       // debounced latch input edge

	// Cargo lives in the (possibly shared) World: the latch grabs the
	// nearest grounded unit within LatchDist; releasing drops the cargo
	// back as a new unit where it lands. Units keep the stable ID they
	// were registered with (their position in the AddCargo sequence), so
	// the scenario engine can tell which load is on which hook. cargoRef
	// is this rig's latched unit (nil when the hook is empty); only this
	// rig's goroutine touches it.
	world    *World
	cargoRef *cargoUnit
	craneID  int64

	wind Wind

	events []Event
	t      float64
}

// New creates a single-crane model resting at start on the given terrain,
// heading along -Z, with boom stowed and cable short. The model owns a
// private cargo World; use NewCrane to place several rigs on one site.
func New(cfg Config, ter *terrain.Map, start mathx.Vec3, heading float64) (*Model, error) {
	return NewCrane(cfg, ter, NewWorld(), start, heading, 0)
}

// NewCrane creates one rig of a (possibly multi-carrier) site: the model
// rests at start on the terrain and latches cargo out of the shared
// world. craneID tags the published CraneState so federation consumers
// can tell the carriers apart; single-crane setups use 0.
func NewCrane(cfg Config, ter *terrain.Map, w *World, start mathx.Vec3, heading float64, craneID int) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ter == nil {
		return nil, fmt.Errorf("dynamics: nil terrain")
	}
	if w == nil {
		return nil, fmt.Errorf("dynamics: nil world")
	}
	m := &Model{
		cfg:      cfg,
		ter:      ter,
		world:    w,
		craneID:  int64(craneID),
		pos:      start,
		heading:  heading,
		luff:     cfg.LuffMin,
		boomLen:  cfg.BoomLenMin,
		cableLen: 4.0,
	}
	m.pos.Y = ter.HeightAt(start.X, start.Z)
	m.pitch, m.roll = ter.Posture(m.pos.X, m.pos.Z, m.heading, cfg.Wheelbase, cfg.Track)
	tip := m.BoomTip()
	m.hookPos = tip.Sub(mathx.V3(0, m.cableLen, 0))
	m.cargoPos = m.hookPos
	return m, nil
}

// World returns the model's cargo world (shared across rigs in
// multi-crane setups).
func (m *Model) World() *World { return m.world }

// CraneID returns the rig's carrier index.
func (m *Model) CraneID() int64 { return m.craneID }

// detachCargo clears the rig's held-load bookkeeping (World.Reset calls
// it when the site layout is replaced under a latched hook).
func (m *Model) detachCargo() {
	m.cargoHeld = false
	m.cargoMass = 0
	m.cargoRef = nil
}

// PlaceCargo registers a single cargo of the given mass resting at pos,
// replacing any previously registered units in the world; the hook
// latches onto it when the operator closes the latch nearby. Use AddCargo
// to register further cargos for multi-lift scenarios.
func (m *Model) PlaceCargo(pos mathx.Vec3, mass float64) {
	m.world.Reset()
	m.AddCargo(pos, mass)
}

// AddCargo registers one more resting cargo unit in the world. The latch
// always grabs the nearest unit within the latch distance. Units are
// identified by their registration order (0, 1, ...), matching the
// scenario cargo-set index when the layout is installed in spec order.
func (m *Model) AddCargo(pos mathx.Vec3, mass float64) {
	m.world.AddCargo(pos, mass)
	if !m.cargoHeld {
		m.cargoPos = m.world.nearestRestingPos(m.hookPos, m.cargoPos)
	}
}

// CarrierRot returns the carrier body rotation mapping body axes (forward
// -Z, right +X, up +Y) to world space. Heading is compass-like — 0 faces
// -Z, π/2 faces +X — which is a rotation of -heading about +Y. Pitch is
// nose-up positive; roll is left-side-up positive, a rotation of -roll
// about +Z in the body frame.
func (m *Model) CarrierRot() mathx.Quat {
	return mathx.QuatEuler(-m.heading, m.pitch, -m.roll)
}

// BoomTip returns the boom tip position in world space.
func (m *Model) BoomTip() mathx.Vec3 {
	// Boom direction in carrier frame: at swing 0 the boom points forward
	// (-Z), luff elevates toward +Y.
	sinS, cosS := math.Sincos(m.swing)
	sinL, cosL := math.Sincos(m.luff)
	dir := mathx.V3(sinS*cosL, sinL, -cosS*cosL)
	local := m.cfg.BoomPivot.Add(dir.Scale(m.boomLen))
	return m.pos.Add(m.CarrierRot().Rotate(local))
}

// Step advances the model by dt seconds under the given operator input and
// returns the discrete events raised during the step.
func (m *Model) Step(in fom.ControlInput, dt float64) []Event {
	if dt <= 0 {
		return nil
	}
	m.events = m.events[:0]
	m.t += dt

	m.stepEngine(in)
	m.stepCarrier(in, dt)
	m.stepBoom(in, dt)
	m.stepPendulum(dt)
	m.stepLatch(in)

	return append([]Event(nil), m.events...)
}

func (m *Model) stepEngine(in fom.ControlInput) {
	if in.Ignition && !m.engineOn {
		m.engineOn = true
		m.events = append(m.events, EventEngineStarted)
	}
	if !in.Ignition && m.engineOn {
		m.engineOn = false
		m.events = append(m.events, EventEngineStopped)
	}
	if m.engineOn {
		m.rpm = m.cfg.IdleRPM + mathx.Clamp(in.Throttle, 0, 1)*(m.cfg.MaxRPM-m.cfg.IdleRPM)
	} else {
		m.rpm = 0
	}
}

func (m *Model) stepCarrier(in fom.ControlInput, dt float64) {
	cfg := m.cfg
	var drive float64
	if m.engineOn {
		switch in.Gear {
		case 1:
			drive = mathx.Clamp(in.Throttle, 0, 1) * cfg.MaxEngineForce
		case 2:
			drive = -mathx.Clamp(in.Throttle, 0, 1) * cfg.MaxEngineForce * 0.6
		}
	}
	// Forces along the forward axis.
	brake := mathx.Clamp(in.Brake, 0, 1) * cfg.MaxBrakeForce
	slope := -cfg.Mass * Gravity * math.Sin(m.pitch) // uphill pitch slows forward motion
	resist := cfg.RollResist * m.speed
	force := drive + slope - resist
	// Brake always opposes motion and can hold the vehicle.
	if m.speed > 0 {
		force -= brake
	} else if m.speed < 0 {
		force += brake
	} else if math.Abs(force) < brake {
		force = 0
	}
	prevSpeed := m.speed
	m.speed += force / cfg.Mass * dt
	// Brake must not reverse the motion direction within a step.
	if brake > 0 && prevSpeed != 0 && m.speed*prevSpeed < 0 {
		m.speed = 0
	}
	m.speed = mathx.Clamp(m.speed, -cfg.MaxReverse, cfg.MaxSpeed)
	m.accelFwd = (m.speed - prevSpeed) / dt

	// Steering (bicycle model). Sign: positive steering turns right
	// (heading increases with forward motion).
	steer := mathx.Clamp(in.Steering, -1, 1) * cfg.MaxSteer
	yawRate := 0.0
	if math.Abs(m.speed) > 1e-6 {
		yawRate = m.speed / cfg.Wheelbase * math.Tan(steer)
	}
	m.prevYawR = yawRate
	m.heading = mathx.WrapAngle(m.heading + yawRate*dt)

	// Advance over the ground; the forward axis at heading 0 is -Z.
	sinH, cosH := math.Sincos(m.heading)
	fwd := mathx.V3(sinH, 0, -cosH)
	m.pos = m.pos.Add(fwd.Scale(m.speed * dt))
	m.pos.Y = m.ter.HeightAt(m.pos.X, m.pos.Z)

	// Terrain following with a small settling lag so grid cell borders do
	// not kick the cab (§3.6).
	tp, tr := m.ter.Posture(m.pos.X, m.pos.Z, m.heading, cfg.Wheelbase, cfg.Track)
	blend := mathx.Clamp(dt/0.15, 0, 1)
	m.pitch += (tp - m.pitch) * blend
	m.roll += (tr - m.roll) * blend
}

// stepBoom integrates the four boom axes with first-order actuator lag and
// hard position limits.
func (m *Model) stepBoom(in fom.ControlInput, dt float64) {
	cfg := m.cfg
	lag := mathx.Clamp(dt/math.Max(cfg.ControlLag, 1e-3), 0, 1)
	operational := m.engineOn // boom hydraulics need the engine

	target := func(axis float64, maxRate float64) float64 {
		if !operational {
			return 0
		}
		return mathx.Clamp(axis, -1, 1) * maxRate
	}
	m.swingV += (target(in.BoomJoyX, cfg.SwingRate) - m.swingV) * lag
	m.luffV += (target(in.BoomJoyY, cfg.LuffRate) - m.luffV) * lag
	m.lenV += (target(in.HoistJoyX, cfg.TeleRate) - m.lenV) * lag
	m.cabV += (target(in.HoistJoyY, cfg.HoistRate) - m.cabV) * lag

	m.swing = mathx.WrapAngle(m.swing + m.swingV*dt)
	m.luff += m.luffV * dt
	if m.luff <= cfg.LuffMin {
		m.luff, m.luffV = cfg.LuffMin, 0
	} else if m.luff >= cfg.LuffMax {
		m.luff, m.luffV = cfg.LuffMax, 0
	}
	m.boomLen += m.lenV * dt
	if m.boomLen <= cfg.BoomLenMin {
		m.boomLen, m.lenV = cfg.BoomLenMin, 0
	} else if m.boomLen >= cfg.BoomLenMax {
		m.boomLen, m.lenV = cfg.BoomLenMax, 0
	}
	m.cableLen += m.cabV * dt
	if m.cableLen <= cfg.CableMin {
		m.cableLen, m.cabV = cfg.CableMin, 0
	} else if m.cableLen >= cfg.CableMax {
		m.cableLen, m.cabV = cfg.CableMax, 0
	}
}

// stepPendulum integrates the hook as a particle on an inextensible cable
// hanging from the moving boom tip: gravity plus linear drag, then a
// position-based projection onto the cable-length constraint. This yields
// the paper's inertia oscillation — the cable "is oscillated until a full
// stop" after the boom halts — without a stiff spring.
func (m *Model) stepPendulum(dt float64) {
	tip := m.BoomTip()
	if !m.havePrevTip {
		m.prevTip = tip
		m.havePrevTip = true
	}
	tipVel := tip.Sub(m.prevTip).Scale(1 / dt)
	m.prevTip = tip
	m.prevTipVel = tipVel

	// Heavier suspended loads are damped relatively less.
	massFactor := (m.cfg.HookMass + m.cargoMass) / m.cfg.HookMass
	drag := m.cfg.CableDrag / massFactor

	m.hookVel.Y -= Gravity * dt
	m.hookVel = m.hookVel.Sub(m.hookVel.Scale(drag * dt))

	// Site wind: aerodynamic drag relaxes the hook velocity toward the
	// wind velocity. Heavier suspended loads respond relatively less.
	if m.cfg.WindResponse > 0 && !m.wind.IsZero() {
		rel := m.wind.VelocityAt(m.t).Sub(m.hookVel)
		m.hookVel = m.hookVel.Add(rel.Scale(m.cfg.WindResponse / massFactor * dt))
	}

	m.hookPos = m.hookPos.Add(m.hookVel.Scale(dt))

	// Cable constraint: the hook may not be farther than cableLen from
	// the tip. A taut cable removes outward radial velocity (relative to
	// the moving pivot).
	delta := m.hookPos.Sub(tip)
	dist := delta.Len()
	if dist > m.cableLen {
		dir := delta.Scale(1 / dist)
		m.hookPos = tip.Add(dir.Scale(m.cableLen))
		rel := m.hookVel.Sub(tipVel)
		if out := rel.Dot(dir); out > 0 {
			m.hookVel = m.hookVel.Sub(dir.Scale(out))
		}
	}

	// Ground: the hook (and carried cargo) cannot sink into the terrain.
	// A latched tandem cargo still waiting for its partner hooks rests on
	// the ground, so it grants no hanging clearance.
	carrying := m.world.isCarrying(m, m.cargoRef)
	minY := m.ter.HeightAt(m.hookPos.X, m.hookPos.Z) + 0.15
	if carrying {
		minY += 0.6 // carried cargo hangs below the hook
	}
	if m.hookPos.Y < minY {
		m.hookPos.Y = minY
		if m.hookVel.Y < 0 {
			m.hookVel.Y = 0
		}
		// Ground friction kills lateral sliding quickly.
		m.hookVel.X *= 0.7
		m.hookVel.Z *= 0.7
	}

	if m.cargoRef != nil {
		m.cargoPos = m.world.trackHook(m, m.cargoRef, m.hookPos)
	} else {
		m.cargoPos = m.world.nearestRestingPos(m.hookPos, m.cargoPos)
	}
}

// stepLatch handles cargo pickup and release on latch edges. The load
// the rig feels is its share of the unit's mass — half a tandem beam,
// the whole of an ordinary crate.
func (m *Model) stepLatch(in fom.ControlInput) {
	if in.HookLatch && !m.latchArm {
		m.latchArm = true
		if !m.cargoHeld {
			// Take the position latch read under the world's lock: a
			// partner rig already holding the unit rewrites it each tick.
			if u, pos, ok := m.world.latch(m, m.hookPos, m.cfg.LatchDist); ok {
				m.cargoHeld = true
				m.cargoRef = u
				m.cargoMass = u.mass / float64(u.hooks)
				m.cargoPos = pos
				m.events = append(m.events, EventCargoLatched)
			}
		}
	}
	if !in.HookLatch && m.latchArm {
		m.latchArm = false
		if m.cargoHeld {
			// A carried unit drops to the ground below its release point
			// and becomes a pickup site again, keeping its identity; a
			// grounded tandem unit just loses this rig's hook.
			m.cargoPos = m.world.release(m, m.cargoRef, m.ter.HeightAt)
			m.cargoHeld = false
			m.cargoRef = nil
			m.cargoMass = 0
			m.events = append(m.events, EventCargoReleased)
		}
	}
}

// Stability returns the tip-over margin in [0,1]: 1 fully stable, 0 at the
// tipping limit. It combines the suspended load moment about the carrier
// with a penalty for ground tilt.
func (m *Model) Stability() float64 {
	load := (m.cfg.HookMass + m.cargoMass) * Gravity
	// Horizontal lever arm of the suspended load from the carrier center.
	arm := math.Hypot(m.hookPos.X-m.pos.X, m.hookPos.Z-m.pos.Z)
	moment := load * arm
	margin := 1 - moment/m.cfg.TipMomentMax
	// Tilt penalty: 15° of combined tilt wipes out half the margin.
	tilt := math.Hypot(m.pitch, m.roll)
	margin -= tilt / mathx.Rad(30)
	return mathx.Clamp(margin, 0, 1)
}

// State exports the authoritative crane state for publication. CargoHeld
// reports the latch (a tandem cargo may still rest on the ground while
// latched, waiting for its partner hooks); CargoMass is this rig's share
// of the load.
func (m *Model) State() fom.CraneState {
	heldID := int64(-1)
	if m.cargoRef != nil {
		heldID = m.cargoRef.id
	}
	return fom.CraneState{
		Position:  m.pos,
		Heading:   m.heading,
		Pitch:     m.pitch,
		Roll:      m.roll,
		Speed:     m.speed,
		BoomSwing: m.swing,
		BoomLuff:  m.luff,
		BoomLen:   m.boomLen,
		CableLen:  m.cableLen,
		HookPos:   m.hookPos,
		HookVel:   m.hookVel,
		CargoMass: m.cargoMass,
		CargoHeld: m.cargoHeld,
		EngineRPM: m.rpm,
		EngineOn:  m.engineOn,
		Stability: m.Stability(),
		CargoPos:  m.cargoPos,
		CargoID:   heldID,
		CraneID:   m.craneID,
	}
}

// MotionCue exports the cab's inertial cues for the motion platform (§3.4).
func (m *Model) MotionCue(frame uint32) fom.MotionCue {
	// Specific force in the cab frame: forward acceleration plus the
	// gravity components induced by the terrain posture.
	sf := mathx.V3(
		Gravity*math.Sin(m.roll),
		-Gravity*math.Cos(m.pitch)*math.Cos(m.roll),
		-m.accelFwd+Gravity*math.Sin(m.pitch),
	)
	vib := 0.0
	if m.engineOn {
		vib = 0.15 + 0.45*(m.rpm-m.cfg.IdleRPM)/math.Max(m.cfg.MaxRPM-m.cfg.IdleRPM, 1)
	}
	return fom.MotionCue{
		SpecificForce: sf,
		AngularRate:   mathx.V3(0, 0, m.prevYawR),
		Vibration:     mathx.Clamp(vib, 0, 1),
		Frame:         frame,
		CraneID:       m.craneID,
	}
}

// Time returns the model's accumulated simulation time.
func (m *Model) Time() float64 { return m.t }
