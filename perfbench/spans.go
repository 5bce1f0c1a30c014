package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point (or reconstructed from a message the
// layer published). Start and End are offsets from the tracer's origin.
type Span struct {
	// Name is "<layer>.<operation>", e.g. "gen.oracle".
	Name string `json:"name"`
	// ID is the span's own identifier; Parent names the span that caused
	// it (0 for a root).
	ID     int64 `json:"span"`
	Parent int64 `json:"parent"`
	// Op is the shared identifier of the unit of work the span belongs
	// to: "exam-3", "job-17", "cand-212".
	Op    string        `json:"op"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Layer returns the module name the span is attributed to.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span now and returns its ID; end closes it.
func (t *tracer) begin(name, op string, parent int64) int64 {
	if t == nil {
		return 0
	}
	return t.add(name, op, parent, time.Now(), time.Time{})
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span with known bounds (a zero end leaves it open) and
// returns its ID.
func (t *tracer) add(name, op string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := Span{Name: name, ID: t.next, Parent: parent, Op: op, Start: start.Sub(t.origin)}
	if !end.IsZero() {
		s.End = end.Sub(t.origin)
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus, per span, the part of the span's interval that its child
// spans cover. Overlapping children (parallel dry-runs, three displays
// rendering at once) are merged before subtracting, so no instant is
// subtracted twice, and a child reaching outside its parent only
// subtracts the overlap.
func selfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int64][]Span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		d := s.End - s.Start
		d -= covered(s.Start, s.End, children[s.ID])
		self[s.Layer()] += d
	}
	return self
}

// covered returns how much of [start, end) the union of the spans covers.
func covered(start, end time.Duration, spans []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, start), min(s.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes the spans as JSON lines into dir, one file per
// workload and seed, and returns the file's path.
func writeSpans(dir, workload string, seed int64, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
