package cb

import (
	"sync"
	"testing"

	"codsim/internal/transport"
	"codsim/internal/wire"
)

// drainOrdered asserts that the subscription's buffered reflections arrive
// in strictly increasing Seq order and returns how many were seen.
func drainOrdered(t *testing.T, sub *Subscription, want int) {
	t.Helper()
	var lastSeq uint32
	for n := 0; n < want; n++ {
		r, ok := sub.Next(waitLong)
		if !ok {
			t.Fatalf("reflection %d/%d never arrived", n+1, want)
		}
		if r.Seq != lastSeq+1 {
			t.Fatalf("reflection %d: seq %d after seq %d (out of order)", n, r.Seq, lastSeq)
		}
		lastSeq = r.Seq
	}
}

// TestOrderedDeliveryLocalParallelUpdates hammers one local virtual channel
// from many goroutines and checks the subscriber observes the per-channel
// sequence in order: Seq n+1 must never be delivered before Seq n.
func TestOrderedDeliveryLocalParallelUpdates(t *testing.T) {
	const (
		writers  = 8
		perGoro  = 200
		expected = writers * perGoro
	)
	lan := transport.NewMemLAN()
	node := newBackbone(t, lan, "solo")
	pub, err := node.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := node.SubscribeObjectClass("s", "State", WithQueue(expected))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				if err := pub.Update(float64(i), attrsWith(float64(w))); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	drainOrdered(t, sub, expected)
}

// TestOrderedDeliveryRemoteParallelUpdates is the cross-node variant: the
// updates are serialized over a peer link and must still reflect in
// sequence order on the other computer.
func TestOrderedDeliveryRemoteParallelUpdates(t *testing.T) {
	const (
		writers  = 6
		perGoro  = 100
		expected = writers * perGoro
	)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub-pc")
	subNode := newBackbone(t, lan, "sub-pc")
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State", WithQueue(expected))
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctxLong(t)) != nil {
		t.Fatal("channel never established")
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				if err := pub.Update(float64(i), attrsWith(1)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	drainOrdered(t, sub, expected)
}

// TestOrderedDeliveryDuringSubscribeChurn runs parallel Updates while new
// subscriptions of the same class register and withdraw concurrently; every
// subscriber that sticks around must still see its own channel in order.
// Primarily a -race exercise of push vs. channel-table mutation.
func TestOrderedDeliveryDuringSubscribeChurn(t *testing.T) {
	lan := transport.NewMemLAN()
	node := newBackbone(t, lan, "solo")
	pub, err := node.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	stable, err := node.SubscribeObjectClass("stable", "State", WithQueue(4096))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for n := 0; ; n++ {
			select {
			case <-done:
				return
			default:
			}
			s, err := node.SubscribeObjectClass("churner", "State")
			if err != nil {
				t.Errorf("churn subscribe: %v", err)
				return
			}
			_ = s.Close()
		}
	}()

	const (
		writers = 4
		perGoro = 250
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				if err := pub.Update(float64(i), attrsWith(1)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	churn.Wait()

	// The stable subscriber's channel existed for every push, so it must
	// have received the full strictly-increasing sequence.
	drainOrdered(t, stable, writers*perGoro)
}

// TestSeqRestartsPerChannel pins the scope of the guarantee: each virtual
// channel numbers its own updates from 1.
func TestSeqRestartsPerChannel(t *testing.T) {
	lan := transport.NewMemLAN()
	node := newBackbone(t, lan, "solo")
	pub, err := node.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	a, err := node.SubscribeObjectClass("a", "State")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Update(0, wire.AttrSet{}); err != nil {
		t.Fatal(err)
	}
	bSub, err := node.SubscribeObjectClass("b", "State")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Update(1, wire.AttrSet{}); err != nil {
		t.Fatal(err)
	}
	ra, ok := a.Next(waitLong)
	if !ok || ra.Seq != 1 {
		t.Fatalf("a first seq = %d, %v", ra.Seq, ok)
	}
	ra, ok = a.Next(waitLong)
	if !ok || ra.Seq != 2 {
		t.Fatalf("a second seq = %d, %v", ra.Seq, ok)
	}
	rb, ok := bSub.Next(waitLong)
	if !ok || rb.Seq != 1 {
		t.Fatalf("b first seq = %d, %v (late channel restarts at 1)", rb.Seq, ok)
	}
}
