package dynamics

import (
	"math"
	"sync"

	"codsim/internal/mathx"
)

// World is the cargo state shared by every rig working one site: the
// resting pickup sites and the loads currently on hooks. A single-crane
// Model owns a private World (dynamics.New builds one), so the classic
// API is unchanged; a multi-crane scenario builds one World and attaches
// every carrier's Model to it with NewCrane.
//
// Multi-hook cargo is the tandem-lift primitive: a unit registered with
// hooks = 2 stays on the ground until two rigs have latched it, then the
// load splits evenly between the cables and the carried position is the
// mean of the holding hooks. One holder releasing mid-carry grounds the
// cargo again while the other stays latched.
//
// Step-time operations (latch, release, hook tracking, nearest-site
// queries) are safe for concurrent use — each rig ticks on its own LP.
// Setup operations (Reset, AddCargo) are not: install the scenario
// before the federation starts stepping.
type World struct {
	mu      sync.Mutex
	resting []*cargoUnit // grounded units, in registration/drop order
	carried []*cargoUnit // fully held units, off the ground
	nextID  int64
}

// cargoUnit is one liftable load, grounded or carried.
type cargoUnit struct {
	id      int64
	pos     mathx.Vec3 // resting position, or carried position once lifted
	mass    float64    // kg, total
	hooks   int        // hooks needed to carry the unit (>= 1)
	holders []holderRef
	carried bool
}

// holderRef is one rig latched onto a unit, with its last reported hook
// position (holders tick on different goroutines, so the unit caches the
// positions instead of reaching into foreign models).
type holderRef struct {
	m    *Model
	hook mathx.Vec3
}

// NewWorld returns an empty shared cargo world.
func NewWorld() *World { return &World{} }

// Reset drops every registered unit and detaches any holders. Setup-time
// only: do not call while rigs are stepping.
func (w *World) Reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, list := range [][]*cargoUnit{w.resting, w.carried} {
		for _, u := range list {
			for _, h := range u.holders {
				h.m.detachCargo()
			}
		}
	}
	w.resting = w.resting[:0]
	w.carried = w.carried[:0]
	w.nextID = 0
}

// AddCargo registers one resting single-hook cargo and returns its stable
// ID (the registration order: 0, 1, ...).
func (w *World) AddCargo(pos mathx.Vec3, mass float64) int64 {
	return w.AddCargoHooks(pos, mass, 1)
}

// AddCargoHooks registers a resting cargo that needs `hooks` latched rigs
// before it leaves the ground (tandem lifts). hooks < 1 means 1.
func (w *World) AddCargoHooks(pos mathx.Vec3, mass float64, hooks int) int64 {
	if hooks < 1 {
		hooks = 1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	u := &cargoUnit{id: w.nextID, pos: pos, mass: mass, hooks: hooks}
	w.nextID++
	w.resting = append(w.resting, u)
	return u.id
}

// latch tries to hook rig m onto the nearest grounded unit with a free
// hook slot within latchDist of hookPos. On success the rig joins the
// holders; a unit reaching its hook count lifts off (removed from the
// resting list, load carried). Ties go to the later-registered unit,
// matching the classic single-site scan. It returns the unit with its
// position read under the lock.
func (w *World) latch(m *Model, hookPos mathx.Vec3, latchDist float64) (*cargoUnit, mathx.Vec3, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	best, bestD := -1, latchDist
	for i, u := range w.resting {
		if len(u.holders) >= u.hooks {
			continue
		}
		if d := hookPos.Dist(u.pos.Add(mathx.V3(0, 0.6, 0))); d <= bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return nil, mathx.Vec3{}, false
	}
	u := w.resting[best]
	u.holders = append(u.holders, holderRef{m: m, hook: hookPos})
	if len(u.holders) == u.hooks {
		u.carried = true
		w.resting = append(w.resting[:best], w.resting[best+1:]...)
		w.carried = append(w.carried, u)
	}
	return u, u.pos, true
}

// release unhooks rig m from unit u. A carried unit drops to the ground
// below its current position (groundY supplies the terrain height there)
// and becomes a pickup site again at the end of the resting order; a
// still-grounded unit just loses one holder. Returns the unit's resting
// position after the release.
func (w *World) release(m *Model, u *cargoUnit, groundY func(x, z float64) float64) mathx.Vec3 {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, h := range u.holders {
		if h.m == m {
			u.holders = append(u.holders[:i], u.holders[i+1:]...)
			break
		}
	}
	if u.carried {
		u.carried = false
		u.pos.Y = groundY(u.pos.X, u.pos.Z) + 0.5
		for i, c := range w.carried {
			if c == u {
				w.carried = append(w.carried[:i], w.carried[i+1:]...)
				break
			}
		}
		w.resting = append(w.resting, u)
	}
	return u.pos
}

// isCarrying reports whether rig m's latched unit is fully held (off the
// ground). False while a tandem cargo still waits for its partner hooks.
func (w *World) isCarrying(m *Model, u *cargoUnit) bool {
	if u == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return u.carried
}

// trackHook records rig m's hook position on its latched unit and returns
// the unit's current position: the mean of the holding hooks minus the
// sling offset while carried, or the fixed resting spot while the unit
// still waits on the ground for its remaining hooks.
func (w *World) trackHook(m *Model, u *cargoUnit, hookPos mathx.Vec3) mathx.Vec3 {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range u.holders {
		if u.holders[i].m == m {
			u.holders[i].hook = hookPos
			break
		}
	}
	if !u.carried {
		return u.pos
	}
	var sum mathx.Vec3
	for _, h := range u.holders {
		sum = sum.Add(h.hook)
	}
	u.pos = sum.Scale(1 / float64(len(u.holders))).Sub(mathx.V3(0, 0.6, 0))
	return u.pos
}

// nearestRestingPos returns the grounded unit nearest to hookPos, or the
// fallback when nothing rests (mirrors the classic published-cargo rule:
// while no cargo hangs on the hook, the displays show the closest pickup).
func (w *World) nearestRestingPos(hookPos, fallback mathx.Vec3) mathx.Vec3 {
	w.mu.Lock()
	defer w.mu.Unlock()
	best := fallback
	bestD := math.Inf(1)
	for _, u := range w.resting {
		if d := hookPos.Dist(u.pos); d < bestD {
			best, bestD = u.pos, d
		}
	}
	return best
}
