package timesync

import (
	"context"
	"fmt"
	"testing"
	"time"

	"codsim/internal/cb"
	"codsim/internal/transport"
	"codsim/internal/wire"
)

func fastCfg() cb.Config {
	return cb.Config{
		BroadcastInterval: 5 * time.Millisecond,
		RefreshInterval:   30 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  80 * time.Millisecond,
	}
}

func TestFederateValidation(t *testing.T) {
	if _, err := NewPublisher(nil, 0.1); err == nil {
		t.Error("nil publication accepted")
	}
	if _, err := NewConsumer(nil); err == nil {
		t.Error("nil subscription accepted")
	}
	lan := transport.NewMemLAN()
	b, err := cb.New(lan, "solo", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pub, err := b.PublishObjectClass("p", "T")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPublisher(pub, -1); err == nil {
		t.Error("negative lookahead accepted")
	}
}

// TestConservativeDeliveryOverCB runs two publisher LPs on separate nodes
// feeding one conservative consumer: events must come out in global
// timestamp order, and only when both inputs have advanced far enough.
func TestConservativeDeliveryOverCB(t *testing.T) {
	lan := transport.NewMemLAN()
	mk := func(node string) *cb.Backbone {
		b, err := cb.New(lan, node, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
		return b
	}
	nodeA := mk("lp-a")
	nodeB := mk("lp-b")
	nodeC := mk("consumer")

	pubA, err := nodeA.PublishObjectClass("a", "Events")
	if err != nil {
		t.Fatal(err)
	}
	pubB, err := nodeB.PublishObjectClass("b", "Events")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := nodeC.SubscribeObjectClass("c", "Events", cb.WithQueue(1024))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("no channel")
	}
	// Wait until BOTH publishers have channels.
	deadline := time.Now().Add(5 * time.Second)
	for pubA.Channels() == 0 || pubB.Channels() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("channels incomplete")
		}
		time.Sleep(time.Millisecond)
	}

	tpA, err := NewPublisher(pubA, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tpB, err := NewPublisher(pubB, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumer(sub, InputName("lp-a", "a"), InputName("lp-b", "b"))
	if err != nil {
		t.Fatal(err)
	}

	send := func(p *Publisher, at float64, id uint32) {
		p.Advance(at)
		attrs := wire.AttrSet{}
		attrs.PutUint32(1, id)
		if err := p.Send(attrs); err != nil {
			t.Fatal(err)
		}
	}

	// A sends at t=1 and t=3; B sends at t=2. B then idles to t=10.
	send(tpA, 1, 101)
	send(tpB, 2, 202)
	send(tpA, 3, 103)

	// Give traffic time to arrive, then check holdback: without B's null,
	// safe time is 2, so only events 101 and 202 may release.
	time.Sleep(50 * time.Millisecond)
	evs := cons.Ready()
	var ids []uint32
	for _, e := range evs {
		r := e.Data.(cb.Reflection)
		id, _ := r.Attrs.Uint32(1)
		ids = append(ids, id)
	}
	if len(ids) != 2 || ids[0] != 101 || ids[1] != 202 {
		t.Fatalf("released %v, want [101 202] (holdback of 103 until B advances)", ids)
	}
	if cons.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (event 103 held)", cons.Pending())
	}

	// B idles forward: its null message must release A's t=3 event.
	tpB.Advance(10)
	if err := tpB.Idle(); err != nil {
		t.Fatal(err)
	}
	evs = cons.WaitReady(5 * time.Second)
	if len(evs) != 1 {
		t.Fatalf("released %d events after null, want 1", len(evs))
	}
	if id, _ := evs[0].Data.(cb.Reflection).Attrs.Uint32(1); id != 103 {
		t.Errorf("released id %d, want 103", id)
	}
	if got := cons.SafeTime(); got < 3 {
		t.Errorf("safe time = %v after null at 10.5", got)
	}
}

// TestFederateTimestampOrder floods from two nodes and asserts global
// timestamp order on release.
func TestFederateTimestampOrder(t *testing.T) {
	lan := transport.NewMemLAN()
	mk := func(node string) *cb.Backbone {
		b, err := cb.New(lan, node, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
		return b
	}
	n1, n2, nc := mk("n1"), mk("n2"), mk("nc")
	p1, err := n1.PublishObjectClass("p1", "Ev")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := n2.PublishObjectClass("p2", "Ev")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := nc.SubscribeObjectClass("c", "Ev", cb.WithQueue(4096))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p1.Channels() == 0 || p2.Channels() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("channels incomplete")
		}
		time.Sleep(time.Millisecond)
	}

	tp1, err := NewPublisher(p1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tp2, err := NewPublisher(p2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumer(sub, InputName("n1", "p1"), InputName("n2", "p2"))
	if err != nil {
		t.Fatal(err)
	}

	// Interleave: p1 at even tenths, p2 at odd tenths.
	const n = 100
	for i := 0; i < n; i++ {
		at := float64(i) / 10
		attrs := wire.AttrSet{}
		attrs.PutUint32(1, uint32(i))
		var p *Publisher
		if i%2 == 0 {
			p = tp1
		} else {
			p = tp2
		}
		p.Advance(at)
		if err := p.Send(attrs); err != nil {
			t.Fatal(err)
		}
	}
	// Close out both streams with nulls past the horizon.
	tp1.Advance(100)
	tp2.Advance(100)
	if err := tp1.Idle(); err != nil {
		t.Fatal(err)
	}
	if err := tp2.Idle(); err != nil {
		t.Fatal(err)
	}

	var got []Event
	for len(got) < n {
		evs := cons.WaitReady(5 * time.Second)
		if len(evs) == 0 {
			t.Fatalf("stalled at %d/%d events (safe=%v pending=%d)",
				len(got), n, cons.SafeTime(), cons.Pending())
		}
		got = append(got, evs...)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("out of order at %d: %v < %v", i, got[i].Time, got[i-1].Time)
		}
	}
	if len(got) != n {
		t.Errorf("released %d, want %d", len(got), n)
	}
	_ = fmt.Sprintf("%v", got[0]) // keep fmt imported for debug ease
}
