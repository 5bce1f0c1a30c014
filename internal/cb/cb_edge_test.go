package cb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"codsim/internal/transport"
	"codsim/internal/wire"
)

func TestWaitChannels(t *testing.T) {
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	// No subscribers yet: the wait must hit its deadline.
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := pub.WaitChannelsContext(short, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitChannelsContext with no subscribers = %v, want deadline exceeded", err)
	}
	subNode := newBackbone(t, lan, "sub")
	if _, err := subNode.SubscribeObjectClass("s", "State"); err != nil {
		t.Fatal(err)
	}
	if err := pub.WaitChannelsContext(ctxLong(t), 1); err != nil {
		t.Fatalf("WaitChannelsContext never saw the channel: %v", err)
	}
	if pub.Channels() != 1 {
		t.Errorf("Channels = %d", pub.Channels())
	}
}

func TestTablesAcrossNodes(t *testing.T) {
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")
	pub, err := pubNode.PublishObjectClass("dyn", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("vis", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctxLong(t)) != nil {
		t.Fatal("not matched")
	}
	pubs, _ := pubNode.Tables()
	if len(pubs) != 1 || pubs[0].Channels != 1 {
		t.Errorf("publisher tables = %+v", pubs)
	}
	_, subs := subNode.Tables()
	if len(subs) != 1 || subs[0].Channels != 1 {
		t.Errorf("subscriber tables = %+v", subs)
	}
	_ = pub
}

// TestSilentPendingLinkReaped plants a raw connection that never speaks:
// the heartbeat reaper must close it instead of leaking it forever.
func TestSilentPendingLinkReaped(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "server")

	ifc, err := lan.Attach("mute-client")
	if err != nil {
		t.Fatal(err)
	}
	defer ifc.Close()
	conn, err := ifc.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Never send anything. After the heartbeat timeout the backbone
	// must drop the pending link, observable as EOF on our side.
	buf := make([]byte, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := conn.Read(buf) // heartbeats may arrive first
		for err == nil {
			_, err = conn.Read(buf)
		}
		errCh <- err
	}()
	select {
	case <-errCh:
		// Connection closed by the reaper: success.
	case <-time.After(waitLong):
		t.Fatal("silent pending link never reaped")
	}
}

// TestMalformedStreamDropsLink sends garbage on a fresh connection: the
// backbone must tear the link down without disturbing other traffic.
func TestMalformedStreamDropsLink(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "server")
	pub, err := b.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}

	ifc, err := lan.Attach("attacker")
	if err != nil {
		t.Fatal(err)
	}
	defer ifc.Close()
	conn, err := ifc.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x00, 0x00, 0x00, 0x04, 0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
		t.Fatal(err)
	}

	// Local traffic still flows.
	if err := pub.Update(1, attrsWith(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := sub.Next(waitLong); !ok {
		t.Fatal("local traffic broken by malformed remote frame")
	}
}

// TestSubscriptionCloseDuringTraffic closes a subscription while a remote
// publisher is mid-burst: no panic, no deadlock, and the publisher's
// writes keep succeeding (stale-channel updates are dropped at the
// receiver).
func TestSubscriptionCloseDuringTraffic(t *testing.T) {
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State", WithQueue(16))
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctxLong(t)) != nil {
		t.Fatal("not matched")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if err := pub.Update(float64(i), attrsWith(float64(i))); err != nil {
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestSubscriberRestartRematches: closing a subscriber LP and registering
// it again (an LP restart, e.g. a display application relaunch) must
// rebuild the virtual channel. This requires the channel-scoped BYE —
// without it the publisher's stale channel entry silences the new
// SUBSCRIPTION broadcasts forever.
func TestSubscriberRestartRematches(t *testing.T) {
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		sub, err := subNode.SubscribeObjectClass("s", "State")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if sub.WaitMatchedContext(ctxLong(t)) != nil {
			t.Fatalf("round %d: restarted subscriber never re-matched", round)
		}
		if err := pub.Update(float64(round), attrsWith(float64(round))); err != nil {
			t.Fatal(err)
		}
		if _, ok := sub.Next(waitLong); !ok {
			t.Fatalf("round %d: no traffic after restart", round)
		}
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPublisherRestartRematches: the symmetric case — a publisher LP
// closes and a new one registers; the standing subscriber must notice the
// dead channel (scoped BYE) and re-match the replacement.
func TestPublisherRestartRematches(t *testing.T) {
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")
	sub, err := subNode.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		pub, err := pubNode.PublishObjectClass("p", "State")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if sub.WaitMatchedContext(ctxLong(t)) != nil {
			t.Fatalf("round %d: subscriber never matched restarted publisher", round)
		}
		if err := pub.Update(float64(round), attrsWith(float64(round))); err != nil {
			t.Fatal(err)
		}
		if _, ok := sub.Next(waitLong); !ok {
			t.Fatalf("round %d: no traffic", round)
		}
		if err := pub.Close(); err != nil {
			t.Fatal(err)
		}
		// The subscriber must observe the teardown before the next round.
		deadline := time.Now().Add(waitLong)
		for sub.Matched() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: subscription never noticed publisher close", round)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestMailboxNextAfterClose verifies Next unblocks when the subscription
// closes underneath a waiting consumer.
func TestMailboxNextAfterClose(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")
	sub, err := b.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan bool, 1)
	go func() {
		_, ok := sub.Next(waitLong)
		got <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-got:
		if ok {
			t.Error("Next returned data from a closed subscription")
		}
	case <-time.After(waitLong):
		t.Fatal("Next did not unblock on close")
	}
}

// errNoData stands in for Next's bare false in TestMailboxWaitForms, so
// both receive forms report through one error-shaped signature.
var errNoData = errors.New("no data")

// TestMailboxWaitForms drives both blocking receives — Next's pooled
// timer and NextContext's done channel — through the mailbox's one wait
// loop: buffered data returns without waiting (even with the budget
// already spent), a push that races the timeout or cancellation is
// delivered rather than dropped, and Close unblocks a parked wait.
func TestMailboxWaitForms(t *testing.T) {
	forms := []struct {
		name string
		// recv waits at most d for a reflection.
		recv func(s *Subscription, d time.Duration) (Reflection, error)
		// expired and closed are the errors for a spent budget and for a
		// closed subscription.
		expired, closed error
	}{
		{
			name: "Next",
			recv: func(s *Subscription, d time.Duration) (Reflection, error) {
				if r, ok := s.Next(d); ok {
					return r, nil
				}
				return Reflection{}, errNoData
			},
			expired: errNoData,
			closed:  errNoData,
		},
		{
			name: "NextContext",
			recv: func(s *Subscription, d time.Duration) (Reflection, error) {
				ctx, cancel := context.WithTimeout(context.Background(), d)
				defer cancel()
				return s.NextContext(ctx)
			},
			expired: context.DeadlineExceeded,
			closed:  ErrHandleClosed,
		},
	}
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			newSub := func(t *testing.T) *Subscription {
				b := newBackbone(t, transport.NewMemLAN(), "solo")
				sub, err := b.SubscribeObjectClass("s", "State", WithDropOldest(), WithQueue(1024))
				if err != nil {
					t.Fatal(err)
				}
				return sub
			}

			t.Run("buffered", func(t *testing.T) {
				sub := newSub(t)
				sub.mbox.push(Reflection{Seq: 1})
				sub.mbox.push(Reflection{Seq: 2})
				start := time.Now()
				if r, err := f.recv(sub, waitLong); err != nil || r.Seq != 1 {
					t.Fatalf("recv = seq %d, %v; want seq 1", r.Seq, err)
				}
				if el := time.Since(start); el > waitLong/2 {
					t.Errorf("buffered receive waited %v", el)
				}
				// A spent budget still yields data already buffered.
				if r, err := f.recv(sub, 0); err != nil || r.Seq != 2 {
					t.Fatalf("recv with spent budget = seq %d, %v; want seq 2", r.Seq, err)
				}
				if _, err := f.recv(sub, 5*time.Millisecond); !errors.Is(err, f.expired) {
					t.Fatalf("recv on empty mailbox = %v, want %v", err, f.expired)
				}
			})

			t.Run("race", func(t *testing.T) {
				// Pushes land at about the wait budget, so many receives
				// see their timer or deadline fire as data arrives. Every
				// reflection must still come out once, in order.
				sub := newSub(t)
				const n = 200
				go func() {
					for i := uint32(1); i <= n; i++ {
						time.Sleep(100 * time.Microsecond)
						sub.mbox.push(Reflection{Seq: i})
					}
				}()
				deadline := time.Now().Add(10 * waitLong)
				for want := uint32(1); want <= n; {
					if time.Now().After(deadline) {
						t.Fatalf("stuck waiting for seq %d", want)
					}
					r, err := f.recv(sub, 100*time.Microsecond)
					if errors.Is(err, f.expired) {
						continue
					}
					if err != nil || r.Seq != want {
						t.Fatalf("recv = seq %d, %v; want seq %d", r.Seq, err, want)
					}
					want++
				}
			})

			t.Run("close", func(t *testing.T) {
				sub := newSub(t)
				got := make(chan error, 1)
				go func() {
					// A budget well past the test's own deadline: only
					// Close can end this wait in time.
					_, err := f.recv(sub, 4*waitLong)
					got <- err
				}()
				time.Sleep(10 * time.Millisecond)
				if err := sub.Close(); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-got:
					if !errors.Is(err, f.closed) {
						t.Errorf("recv after Close = %v, want %v", err, f.closed)
					}
				case <-time.After(waitLong):
					t.Fatal("Close did not unblock the wait")
				}
			})
		})
	}
}

// TestAttrsIsolatedFromPublisherMutation: the paper's push model must not
// alias the publisher's buffers — mutating the attribute set after Update
// must not change what subscribers see (copy-at-boundary).
func TestAttrsIsolatedFromPublisherMutation(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")
	pub, err := b.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}
	attrs := wire.AttrSet{}
	attrs.PutFloat64(1, 42)
	if err := pub.Update(0, attrs); err != nil {
		t.Fatal(err)
	}
	attrs.PutFloat64(1, -1) // publisher reuses its map
	r, ok := sub.Next(waitLong)
	if !ok {
		t.Fatal("no reflection")
	}
	if v, _ := r.Attrs.Float64(1); v != 42 {
		t.Errorf("subscriber saw publisher mutation: %v", v)
	}
}

// TestPubSubChurnProperty: random sequences of register/unregister on one
// backbone never corrupt the tables (counts stay consistent).
func TestPubSubChurnProperty(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "churn")
	f := func(ops []uint8) bool {
		var pubs []*Publication
		var subs []*Subscription
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if p, err := b.PublishObjectClass(lpName(len(pubs)), "Churn"); err == nil {
					pubs = append(pubs, p)
				}
			case 1:
				if s, err := b.SubscribeObjectClass(lpName(len(subs)+1000), "Churn"); err == nil {
					subs = append(subs, s)
				}
			case 2:
				if len(pubs) > 0 {
					_ = pubs[len(pubs)-1].Close()
					pubs = pubs[:len(pubs)-1]
				}
			case 3:
				if len(subs) > 0 {
					_ = subs[len(subs)-1].Close()
					subs = subs[:len(subs)-1]
				}
			}
		}
		pt, st := b.Tables()
		okCounts := len(pt) == len(pubs) && len(st) == len(subs)
		for _, p := range pubs {
			_ = p.Close()
		}
		for _, s := range subs {
			_ = s.Close()
		}
		return okCounts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func lpName(i int) string { return "lp-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) }
