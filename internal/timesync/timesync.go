// Package timesync implements the conservative asynchronous time
// synchronization the paper adopts from Chandy & Misra (ref [7]): LPs
// exchange timestamped messages; an LP may only advance to the minimum
// timestamp promised by all of its input channels, and idle publishers send
// *null messages* — a timestamp with no content — so waiting LPs can make
// progress (lookahead) instead of deadlocking.
//
// The package is deliberately small: an InputSet tracking per-channel
// clocks, a Regulator stamping outgoing messages with lookahead, and an
// EventQueue for timestamp-ordered processing. Nothing in the simulator
// imports it yet: the federation's LPs are wall-clock paced (package lp)
// and read conflated latest-value state, so this conservative kernel is
// exercised only by its own tests, including a federate test over real
// CB channels.
package timesync

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrUnknownInput reports an Observe for a link that was never added.
var ErrUnknownInput = errors.New("timesync: unknown input link")

// InputSet tracks the conservative clock of each input channel of an LP.
// The LP's safe time is the minimum over all channels: no message with an
// earlier timestamp can still arrive (channels are FIFO, senders stamp
// monotonically).
type InputSet struct {
	mu     sync.Mutex
	clocks map[string]float64
}

// NewInputSet creates an InputSet with the given input link names, all at
// time 0.
func NewInputSet(links ...string) *InputSet {
	s := &InputSet{clocks: make(map[string]float64, len(links))}
	for _, l := range links {
		s.clocks[l] = 0
	}
	return s
}

// AddInput registers a new input link at time t (dynamic join).
func (s *InputSet) AddInput(link string, t float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clocks[link] = t
}

// RemoveInput removes a link (its publisher left the federation).
func (s *InputSet) RemoveInput(link string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.clocks, link)
}

// Observe advances the clock of link to t. Regressions are ignored —
// channel FIFO order means a late observation can only be a duplicate.
func (s *InputSet) Observe(link string, t float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.clocks[link]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownInput, link)
	}
	if t > cur {
		s.clocks[link] = t
	}
	return nil
}

// SafeTime returns the minimum channel clock: the LP may process every
// event with timestamp ≤ SafeTime. With no inputs it returns +Inf (the LP
// is unconstrained).
func (s *InputSet) SafeTime() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.clocks) == 0 {
		return math.Inf(1)
	}
	safe := math.Inf(1)
	for _, t := range s.clocks {
		if t < safe {
			safe = t
		}
	}
	return safe
}

// Inputs returns the number of tracked links.
func (s *InputSet) Inputs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clocks)
}

// Regulator stamps an LP's outgoing messages. Lookahead is the promise that
// the LP will not send anything earlier than now+lookahead, which is what
// lets downstream LPs advance past idle periods (Chandy–Misra null
// messages). Lookahead must be positive for cyclic topologies to progress.
type Regulator struct {
	mu        sync.Mutex
	now       float64
	lookahead float64
	lastSent  float64
}

// NewRegulator creates a regulator at time 0 with the given lookahead.
func NewRegulator(lookahead float64) (*Regulator, error) {
	if lookahead < 0 {
		return nil, fmt.Errorf("timesync: negative lookahead %v", lookahead)
	}
	return &Regulator{lookahead: lookahead}, nil
}

// Advance moves the LP's local clock to t (monotone; regressions ignored).
func (r *Regulator) Advance(t float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t > r.now {
		r.now = t
	}
}

// Now returns the LP's local clock.
func (r *Regulator) Now() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.now
}

// StampEvent returns the timestamp for a real outgoing message sent now.
// Outgoing stamps are forced monotone so FIFO channels never observe a
// regression.
func (r *Regulator) StampEvent() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.now
	if t < r.lastSent {
		t = r.lastSent
	}
	r.lastSent = t
	return t
}

// NullTime returns the timestamp to advertise in a null message: the
// promise now+lookahead. It also keeps the monotone-send invariant.
func (r *Regulator) NullTime() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.now + r.lookahead
	if t < r.lastSent {
		t = r.lastSent
	}
	r.lastSent = t
	return t
}

// Event is one timestamped work item of a conservative LP.
type Event struct {
	Time float64
	Data any
}

// EventQueue is a timestamp-ordered min-heap of events. Not safe for
// concurrent use; it belongs to a single LP loop.
type EventQueue struct {
	h eventHeap
}

// Push inserts an event.
func (q *EventQueue) Push(e Event) { heap.Push(&q.h, e) }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return q.h.Len() }

// PeekTime returns the earliest timestamp, or +Inf when empty.
func (q *EventQueue) PeekTime() float64 {
	if q.h.Len() == 0 {
		return math.Inf(1)
	}
	return q.h[0].Time
}

// PopUpTo removes and returns, in timestamp order, every event with
// Time ≤ safe.
func (q *EventQueue) PopUpTo(safe float64) []Event {
	var out []Event
	for q.h.Len() > 0 && q.h[0].Time <= safe {
		out = append(out, heap.Pop(&q.h).(Event))
	}
	return out
}

type eventHeap []Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].Time < h[j].Time }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
