package cb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"codsim/internal/wire"
)

// Reflection is one delivered update: the subscriber-side view of an
// UPDATE ATTRIBUTE VALUE frame (HLA's Reflect Attribute Values callback).
type Reflection struct {
	Class   string
	PubNode string
	PubLP   string
	Channel uint32
	Seq     uint32
	Time    float64
	Null    bool // Chandy–Misra null message: time only, no attributes
	Attrs   wire.AttrSet
}

// outChannel is the publisher half of a virtual channel: the link (nil for
// the in-process fast path) plus the subscriber-assigned channel ID.
type outChannel struct {
	class      string
	key        chanKey
	link       *peerLink     // nil → local delivery
	local      *Subscription // set when link == nil
	remoteChan uint32
	policy     wire.Policy
	window     uint32 // reliable send window (PolicyReliable only)

	// sendMu serializes sequence assignment *and* the matching deliver/send
	// on this channel, so the per-channel delivery order always equals the
	// sequence order even when several goroutines Update concurrently.
	sendMu sync.Mutex
	seq    uint32 // guarded by sendMu

	// Credit accounting of a reliable channel. consumed is the cumulative
	// count of updates the subscriber has drained from its mailbox,
	// reported by CREDIT frames and heartbeat piggybacks; the publisher
	// stalls while seq-consumed reaches the window. gone flips when the
	// channel is torn down, releasing any stalled publisher.
	credMu   sync.Mutex
	consumed uint32
	gone     bool
	stalls   uint64        // credit-stall episodes, surfaced in Tables
	creditCh chan struct{} // capacity 1; poked on credit arrival / teardown
}

// newOutChannel builds the publisher half with its policy contract.
func newOutChannel(class string, key chanKey, link *peerLink, local *Subscription, remoteChan uint32, policy wire.Policy, window uint32) *outChannel {
	oc := &outChannel{
		class: class, key: key, link: link, local: local,
		remoteChan: remoteChan, policy: policy, window: window,
	}
	if policy == wire.PolicyReliable {
		if oc.window == 0 {
			oc.window = DefaultCreditWindow
		}
		oc.creditCh = make(chan struct{}, 1)
	}
	return oc
}

// setConsumed folds a cumulative consumption report into the window state.
// Counts may arrive out of order (immediate CREDIT frames race heartbeat
// piggybacks), so only forward movement is kept.
func (oc *outChannel) setConsumed(cum uint32) {
	if oc.policy != wire.PolicyReliable {
		return
	}
	oc.credMu.Lock()
	if int32(cum-oc.consumed) > 0 {
		oc.consumed = cum
	}
	oc.credMu.Unlock()
	select {
	case oc.creditCh <- struct{}{}:
	default:
	}
}

// release marks the channel dead and wakes any publisher stalled on its
// window — a subscriber dying mid-stall must not wedge the producer.
func (oc *outChannel) release() {
	if oc.policy != wire.PolicyReliable {
		return
	}
	oc.credMu.Lock()
	oc.gone = true
	oc.credMu.Unlock()
	select {
	case oc.creditCh <- struct{}{}:
	default:
	}
}

// windowOpen reports whether the reliable channel can take another update.
// Caller holds sendMu (guarding seq).
func (oc *outChannel) windowOpen() bool {
	oc.credMu.Lock()
	defer oc.credMu.Unlock()
	return oc.gone || oc.seq-oc.consumed < oc.window
}

// acquireSend takes the channel's send slot once the credit window has
// room. The slot is NOT held while parked — a blocking send stalled on
// credits must not block nulls or non-blocking probes on the same
// channel — so the window is re-checked each time the slot is re-taken.
// A nil ctx is the non-blocking form: it reports false on a full window.
// stalled tells the retry form that this stall episode was already
// counted by a preceding non-blocking probe. On (true, nil) the caller
// holds sendMu.
func (oc *outChannel) acquireSend(ctx context.Context, stats *Stats, stalled bool) (bool, error) {
	for {
		oc.sendMu.Lock()
		if oc.windowOpen() {
			// Chain the wakeup: a grant pokes at most one parked sender
			// (creditCh holds one token), so pass the token on while the
			// window has room — without this, coalesced grants strand
			// other waiters even though slots are free.
			select {
			case oc.creditCh <- struct{}{}:
			default:
			}
			return true, nil
		}
		oc.sendMu.Unlock()
		if !stalled {
			stalled = true
			oc.credMu.Lock()
			oc.stalls++
			oc.credMu.Unlock()
			stats.CreditStalls.Inc()
		}
		if ctx == nil {
			return false, nil
		}
		select {
		case <-oc.creditCh:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
}

// inChannel is the subscriber half: the binding from a channel ID to the
// local subscription entry. established flips when the publisher confirms
// with the second ACKNOWLEDGE (AckChannelUp) — only then is the channel
// counted as matched, because until the publisher records its half, pushed
// updates would route into the void.
//
// Credit bookkeeping of a reliable subscription lives in the mailbox
// (per-channel cumulative consumption under the mailbox's own lock), so
// the consume hot path touches the global backbone mutex only when a
// grant is actually due.
type inChannel struct {
	id          uint32
	key         chanKey
	link        *peerLink // nil for the in-process fast path
	sub         *Subscription
	established bool
}

// Publication is an LP's publisher registration for one object class
// (HLA Publish Object Class). Obtain it from PublishObjectClass.
type Publication struct {
	b     *Backbone
	key   classLP
	mu    sync.Mutex
	close bool
}

// Subscription is an LP's subscriber registration for one object class
// (HLA Subscribe Object Class). Obtain it from SubscribeObjectClass.
type Subscription struct {
	b   *Backbone
	key classLP

	policy wire.Policy
	window uint32 // reliable send window granted to each publisher
	// grantEvery batches credit grants: one per quarter window keeps
	// credit traffic at ~4 frames per window without letting it run dry;
	// the heartbeat piggyback covers what the batching holds back.
	grantEvery uint32
	mbox       *mailbox
	onReflect  func(Reflection) // optional; bypasses the mailbox

	// Guarded by b.mu:
	channels      map[uint32]*inChannel
	lastBroadcast time.Time
	registeredAt  time.Time
	everMatched   bool

	mu     sync.Mutex
	closed bool
}

// SubscribeOption configures a subscription.
type SubscribeOption func(*subCfg)

type subCfg struct {
	depth     int
	policy    wire.Policy
	window    int
	onReflect func(Reflection)
}

// DefaultCreditWindow is the reliable send window used when WithReliable
// is given a non-positive window (and when a policy-bearing handshake
// omits the window attribute).
const DefaultCreditWindow = 64

// WithQueue sets the mailbox depth. Under the default drop-oldest policy
// the oldest reflection is dropped on overflow; combine with a delivery
// policy option to change what overflow means.
func WithQueue(depth int) SubscribeOption {
	return func(c *subCfg) { c.depth = depth }
}

// WithConflation keeps only the newest reflection (a depth-1 latest-value
// mailbox). This is the natural mode for single-publisher state classes
// sampled by a display loop: the pull side only ever wants the latest
// value. With several publishers, prefer WithLatestValue and a depth of at
// least the publisher count, which conflates per channel.
func WithConflation() SubscribeOption {
	return func(c *subCfg) {
		c.policy = wire.PolicyLatestValue
		c.depth = 1
	}
}

// WithLatestValue selects the conflating delivery policy: a full mailbox
// coalesces to the newest reflection per channel instead of dropping the
// oldest blindly. The right contract for periodic state (crane state,
// motion cues) — memory stays bounded while a stalled consumer resumes on
// the freshest sample from every publisher.
func WithLatestValue() SubscribeOption {
	return func(c *subCfg) { c.policy = wire.PolicyLatestValue }
}

// WithReliable selects the credit-windowed delivery policy: nothing is
// ever dropped. Each publisher of the class may have at most window
// unconsumed updates in flight to this subscription; beyond that its
// Update returns ErrWindowFull (or UpdateContext blocks) until this
// subscriber consumes — saturation propagates to the producer instead of
// the kernel buffer. window <= 0 means DefaultCreditWindow.
func WithReliable(window int) SubscribeOption {
	return func(c *subCfg) {
		c.policy = wire.PolicyReliable
		c.window = window
	}
}

// WithDropOldest selects the legacy policy explicitly: a full mailbox
// drops its oldest reflection. This is the default at this layer and the
// behavior every policy-less legacy peer gets.
func WithDropOldest() SubscribeOption {
	return func(c *subCfg) { c.policy = wire.PolicyDropOldest }
}

// WithCallback delivers reflections synchronously on the receive path
// instead of buffering. The callback must be fast and must not call back
// into the backbone.
func WithCallback(fn func(Reflection)) SubscribeOption {
	return func(c *subCfg) { c.onReflect = fn }
}

// PublishObjectClass registers lp as a publisher of class. Matching local
// subscribers are linked immediately; remote subscribers are linked when
// their SUBSCRIPTION broadcasts arrive.
func (b *Backbone) PublishObjectClass(lp, class string) (*Publication, error) {
	if class == "" {
		return nil, ErrUnknownClass
	}
	if lp == "" {
		return nil, ErrUnknownLP
	}
	key := classLP{class: class, lp: lp}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := b.pubs[key]; dup {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrDuplicateLP, lp, class)
	}
	p := &Publication{b: b, key: key}
	b.pubs[key] = p
	// In-process fast path: link to every local subscriber of the class.
	for skey, sub := range b.subs {
		if skey.class == class {
			b.establishLocalLocked(sub)
		}
	}
	b.mu.Unlock()
	return p, nil
}

// SubscribeObjectClass registers lp as a subscriber of class and begins
// broadcasting SUBSCRIPTION until matched (then keeps refreshing slowly).
func (b *Backbone) SubscribeObjectClass(lp, class string, opts ...SubscribeOption) (*Subscription, error) {
	if class == "" {
		return nil, ErrUnknownClass
	}
	if lp == "" {
		return nil, ErrUnknownLP
	}
	cfg := subCfg{depth: 0}
	for _, o := range opts {
		o(&cfg)
	}
	depth := cfg.depth
	window := uint32(DefaultCreditWindow)
	if cfg.policy == wire.PolicyReliable && cfg.window > 0 {
		window = uint32(cfg.window)
	}
	key := classLP{class: class, lp: lp}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := b.subs[key]; dup {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrDuplicateLP, lp, class)
	}
	if depth <= 0 {
		depth = b.cfg.MailboxDepth
	}
	if cfg.policy == wire.PolicyReliable && depth < int(window) {
		// The mailbox must absorb a full window per publisher before the
		// credits stall them; start at one window and let it grow.
		depth = int(window)
	}
	grantEvery := window / 4
	if grantEvery == 0 {
		grantEvery = 1
	}
	s := &Subscription{
		b:            b,
		key:          key,
		policy:       cfg.policy,
		window:       window,
		grantEvery:   grantEvery,
		mbox:         newMailbox(depth, cfg.policy, &b.stats),
		onReflect:    cfg.onReflect,
		channels:     make(map[uint32]*inChannel),
		registeredAt: b.now(),
	}
	b.subs[key] = s
	// In-process fast path: link to local publishers right away.
	hasLocalPub := false
	for pkey := range b.pubs {
		if pkey.class == class {
			hasLocalPub = true
			break
		}
	}
	if hasLocalPub {
		b.establishLocalLocked(s)
	}
	b.mu.Unlock()
	return s, nil
}

// establishLocalLocked creates the in-process virtual channel for s if one
// does not already exist. Caller holds b.mu.
func (b *Backbone) establishLocalLocked(s *Subscription) {
	key := chanKey{peer: b.node, subLP: s.key.lp, class: s.key.class}
	if _, exists := b.outKeys[key]; exists {
		return
	}
	b.nextChan++
	id := b.nextChan
	oc := newOutChannel(s.key.class, key, nil, s, id, s.policy, s.window)
	b.outs[s.key.class] = append(b.outs[s.key.class], oc)
	b.outKeys[key] = oc
	b.outByChan[linkChan{id: id}] = oc
	ic := newInChannel(id, key, nil, s)
	ic.established = true
	b.ins[id] = ic
	b.inSubKeys[key] = id
	s.channels[id] = ic
	b.noteMatchedLocked(s)
	b.stats.ChannelsUp.Inc()
}

// newInChannel builds the subscriber half.
func newInChannel(id uint32, key chanKey, link *peerLink, s *Subscription) *inChannel {
	return &inChannel{id: id, key: key, link: link, sub: s}
}

// noteMatchedLocked records the registration→first-channel latency once.
func (b *Backbone) noteMatchedLocked(s *Subscription) {
	if s.everMatched {
		return
	}
	s.everMatched = true
	b.stats.EstablishLatency.Observe(b.now().Sub(s.registeredAt).Seconds())
}

// Update pushes one attribute update into every virtual channel of the
// class (UPDATE ATTRIBUTE VALUE). simTime is the publisher's simulation
// time. The attrs map is cloned before the call returns, so the caller may
// reuse it.
//
// Updates on one virtual channel are delivered to the subscriber in
// sequence (Seq) order, even when Update is called from several goroutines
// concurrently. Ordering across different channels — different subscriber
// LPs, or different publishers of the same class — is unspecified.
//
// A reliable channel whose credit window is exhausted is skipped and the
// call reports ErrWindowFull (after delivering to every other channel);
// use UpdateContext to block for credits instead.
func (p *Publication) Update(simTime float64, attrs wire.AttrSet) error {
	_, err := p.push(nil, simTime, attrs, false)
	return err
}

// UpdateContext is Update that blocks while any reliable channel's credit
// window is exhausted, resuming as the subscriber consumes. It returns
// ctx.Err() when canceled mid-stall (the update may by then have reached
// the channels ahead of the stalled one; reliable consumers are expected
// to deduplicate, as the dist protocol does).
func (p *Publication) UpdateContext(ctx context.Context, simTime float64, attrs wire.AttrSet) error {
	_, err := p.push(ctx, simTime, attrs, false)
	return err
}

// UpdateRouted is Update reporting the number of virtual channels the
// update was delivered into, read atomically with the push (the cod SDK's
// ErrNoSubscribers detection rides on this — a separate Channels() sample
// would race with channel establishment).
func (p *Publication) UpdateRouted(simTime float64, attrs wire.AttrSet) (int, error) {
	return p.push(nil, simTime, attrs, false)
}

// UpdateRoutedContext is UpdateContext reporting the routed channel count.
func (p *Publication) UpdateRoutedContext(ctx context.Context, simTime float64, attrs wire.AttrSet) (int, error) {
	return p.push(ctx, simTime, attrs, false)
}

// SendNull pushes a Chandy–Misra null message carrying only the publisher's
// time lower bound, letting conservative subscribers advance (§2, ref [7]).
// Nulls bypass credit windows: blocking time synchronization on data
// backpressure would deadlock conservative consumers.
func (p *Publication) SendNull(simTime float64) error {
	_, err := p.push(nil, simTime, wire.AttrSet{}, true)
	return err
}

// push routes one update into every virtual channel of the class.
//
// Ordering guarantee: on any single virtual channel (one publisher node →
// one subscriber LP), updates are delivered in sequence order — each
// channel's sendMu is held across both the Seq assignment and the matching
// deliver/send, so two concurrent Update calls cannot deliver Seq n+1
// before Seq n. No ordering is promised *across* channels or across
// different publishers of the same class.
//
// Delivery policy: reliable channels are sent only while their credit
// window has room. With a nil ctx a full window skips the channel and the
// call reports ErrWindowFull; with a ctx the send stalls until the
// subscriber consumes, the channel dies, or ctx is done. The stall parks
// outside the channel's send slot, so concurrent nulls and non-blocking
// probes are never blocked behind it; the window is re-verified under the
// slot before every send, keeping delivery order equal to seq order.
func (p *Publication) push(ctx context.Context, simTime float64, attrs wire.AttrSet, null bool) (int, error) {
	p.mu.Lock()
	if p.close {
		p.mu.Unlock()
		return 0, ErrHandleClosed
	}
	p.mu.Unlock()

	b := p.b
	sc := getPushScratch()
	defer sc.put()

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, ErrClosed
	}
	sc.chans = append(sc.chans[:0], b.outs[p.key.class]...)
	b.mu.Unlock()

	kind := wire.KindUpdateAttrs
	if null {
		kind = wire.KindNull
	}
	routed := 0
	windowFull := false
	for _, oc := range sc.chans {
		if oc.policy == wire.PolicyReliable && !null {
			// Non-blocking probe first: while the batch holds other
			// channels' send slots we must not park. Only when the window
			// is full and the caller wants to block do we flush (releasing
			// every held slot) and retry with the parking form.
			open, _ := oc.acquireSend(nil, &b.stats, false)
			if !open {
				if ctx == nil {
					windowFull = true
					continue
				}
				routed += sc.flush(b)
				var err error
				open, err = oc.acquireSend(ctx, &b.stats, true)
				if err != nil {
					routed += sc.flush(b)
					return routed, err
				}
				if !open {
					windowFull = true
					continue
				}
			}
		} else {
			oc.sendMu.Lock()
		}
		oc.seq++
		seq := oc.seq
		if oc.link == nil {
			r := Reflection{
				Class:   p.key.class,
				PubNode: b.node,
				PubLP:   p.key.lp,
				Channel: oc.remoteChan,
				Seq:     seq,
				Time:    simTime,
				Null:    null,
				Attrs:   attrs.Clone(),
			}
			b.deliver(oc.local, r)
			oc.sendMu.Unlock()
			routed++
			b.stats.UpdatesSent.Inc()
			continue
		}
		if sc.link != nil && sc.link != oc.link {
			routed += sc.flush(b)
		}
		f := wire.Frame{
			Kind:    kind,
			Channel: oc.remoteChan,
			Seq:     seq,
			Time:    simTime,
			Node:    b.node,
			LP:      p.key.lp,
			Class:   p.key.class,
			Attrs:   attrs,
		}
		if err := sc.stage(oc, f); err != nil {
			// The frame cannot be encoded (oversized attrs); it never
			// reached the wire and the link is healthy. Roll back the seq
			// this frame would have carried and move on.
			oc.seq--
			oc.sendMu.Unlock()
			continue
		}
	}
	routed += sc.flush(b)
	if windowFull {
		return routed, ErrWindowFull
	}
	return routed, nil
}

// Channels returns the number of virtual channels currently carrying this
// publication's class (shared by all local publishers of the class).
func (p *Publication) Channels() int {
	b := p.b
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.outs[p.key.class])
}

// WaitChannelsContext blocks until the class has at least n channels or ctx
// is done, in which case it returns ctx.Err(). Handy for startup sequencing.
func (p *Publication) WaitChannelsContext(ctx context.Context, n int) error {
	return waitCond(ctx, func() bool { return p.Channels() >= n })
}

// waitCond polls cond once per millisecond until it holds (nil) or ctx is
// done (ctx.Err()). The backbone's state transitions have no subscribable
// edge, so condition waits poll — at this period the cost is negligible
// against the protocol's broadcast intervals.
func waitCond(ctx context.Context, cond func() bool) error {
	if cond() {
		return nil
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			if cond() {
				return nil
			}
			return ctx.Err()
		case <-tick.C:
			if cond() {
				return nil
			}
		}
	}
}

// Close withdraws the publisher registration. Channels from other
// publishers of the same class are unaffected.
func (p *Publication) Close() error {
	p.mu.Lock()
	if p.close {
		p.mu.Unlock()
		return nil
	}
	p.close = true
	p.mu.Unlock()

	b := p.b
	b.mu.Lock()
	delete(b.pubs, p.key)
	// Tear down the class's out-channels only when no other local LP
	// still publishes the class.
	stillPublished := false
	for key := range b.pubs {
		if key.class == p.key.class {
			stillPublished = true
			break
		}
	}
	type byeTarget struct {
		link *peerLink
		id   uint32
	}
	var byes []byeTarget
	if !stillPublished {
		for _, oc := range b.outs[p.key.class] {
			b.removeOutLocked(oc)
			if oc.local != nil {
				if ic, ok := b.ins[oc.remoteChan]; ok && ic.sub != nil {
					delete(ic.sub.channels, oc.remoteChan)
					ic.sub.mbox.forgetChannel(oc.remoteChan)
					delete(b.inSubKeys, ic.key)
					delete(b.ins, oc.remoteChan)
					// Local subscriber resumes discovery for other
					// (remote) publishers right away.
					ic.sub.lastBroadcast = time.Time{}
				}
				continue
			}
			byes = append(byes, byeTarget{link: oc.link, id: oc.remoteChan})
		}
		delete(b.outs, p.key.class)
	}
	node := b.node
	b.mu.Unlock()

	// Tell remote subscribers their channel is gone so they re-arm fast
	// discovery instead of waiting on a silent stale channel.
	for _, t := range byes {
		_ = t.link.send(wire.Frame{Kind: wire.KindBye, Channel: t.id, Node: node})
	}
	return nil
}

// deliver hands a reflection to the subscription's callback or mailbox.
func (b *Backbone) deliver(s *Subscription, r Reflection) {
	if s == nil {
		return
	}
	s.mu.Lock()
	closed := s.closed
	cb := s.onReflect
	s.mu.Unlock()
	if closed {
		return
	}
	if cb != nil {
		cb(r)
		b.stats.ReflectsDelivered.Inc()
		// A callback consumes synchronously, so the credit is immediate.
		s.consumed(r.Channel)
		return
	}
	s.mbox.push(r)
	b.stats.ReflectsDelivered.Inc()
}

// consumed reports one reflection drained from channel id, granting
// credits back to the publisher on reliable subscriptions. The counter
// lives under the mailbox's lock; the global backbone mutex is touched
// only on the grantEvery-th consumption, when a grant actually goes out.
func (s *Subscription) consumed(id uint32) {
	if s.policy != wire.PolicyReliable {
		return
	}
	if cum, due := s.mbox.noteConsumed(id, s.grantEvery); due {
		s.b.sendGrant(s, id, cum)
	}
}

// Poll returns the oldest buffered reflection without blocking; ok reports
// whether one was available. This is the paper's "pull" side.
func (s *Subscription) Poll() (Reflection, bool) {
	r, ok := s.mbox.poll()
	if ok {
		s.consumed(r.Channel)
	}
	return r, ok
}

// Latest drains the mailbox and returns the newest reflection; ok is false
// when the mailbox was empty. Convenient for conflated state classes.
func (s *Subscription) Latest() (Reflection, bool) {
	var (
		last Reflection
		got  bool
	)
	for {
		r, ok := s.Poll()
		if !ok {
			return last, got
		}
		last, got = r, true
	}
}

// NextContext blocks until a reflection arrives, ctx is done (ctx.Err()),
// or the subscription closes (ErrHandleClosed). A reflection that races
// with the cancellation is still delivered.
func (s *Subscription) NextContext(ctx context.Context) (Reflection, error) {
	r, err := waitMailbox(s.mbox, ctx.Done())
	if err == nil {
		s.consumed(r.Channel)
	} else if errors.Is(err, errWaitDone) {
		err = ctx.Err()
	}
	return r, err
}

// Next blocks until a reflection arrives or timeout elapses; ok is false
// on timeout or when the subscription closes. Unlike NextContext it
// carries no context machinery: an already-buffered reflection returns
// without touching the clock, and the timeout rides a pooled timer — the
// consumer hot path allocates nothing.
func (s *Subscription) Next(timeout time.Duration) (Reflection, bool) {
	r, ok := s.mbox.next(timeout)
	if ok {
		s.consumed(r.Channel)
	}
	return r, ok
}

// Policy returns the subscription's delivery policy.
func (s *Subscription) Policy() wire.Policy { return s.policy }

// NotifyC returns a channel that receives a token whenever the mailbox goes
// from empty to non-empty, for select-based consumers.
func (s *Subscription) NotifyC() <-chan struct{} { return s.mbox.notify }

// Pending returns the number of buffered reflections.
func (s *Subscription) Pending() int { return s.mbox.pending() }

// Matched reports whether the subscription currently has at least one
// fully established virtual channel (both ACKNOWLEDGE phases complete, so
// the publisher is routing into it).
func (s *Subscription) Matched() bool {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ic := range s.channels {
		if ic.established {
			return true
		}
	}
	return false
}

// Close withdraws the subscriber registration and releases its channels.
func (s *Subscription) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	b := s.b
	b.mu.Lock()
	delete(b.subs, s.key)
	type byeTarget struct {
		link *peerLink
		id   uint32
	}
	var byes []byeTarget
	for id, ic := range s.channels {
		delete(b.ins, id)
		delete(b.inSubKeys, ic.key)
		if ic.link != nil {
			// Tell the publisher this channel is dead, or its stale
			// out-channel entry would silently ignore a re-registration
			// of the same LP forever.
			byes = append(byes, byeTarget{link: ic.link, id: id})
		}
		// Local fast-path channels also have a publisher half to clean
		// (and possibly a publisher stalled on its window to release).
		if oc, ok := b.outKeys[ic.key]; ok && oc.local == s {
			b.removeOutLocked(oc)
			chans := b.outs[s.key.class]
			kept := chans[:0]
			for _, c := range chans {
				if c != oc {
					kept = append(kept, c)
				}
			}
			b.outs[s.key.class] = kept
		}
	}
	s.channels = make(map[uint32]*inChannel)
	node := b.node
	b.mu.Unlock()

	for _, t := range byes {
		_ = t.link.send(wire.Frame{Kind: wire.KindBye, Channel: t.id, Node: node})
	}
	s.mbox.close()
	return nil
}

// mailbox is the bounded per-subscription buffer: a ring whose overflow
// behavior follows the subscription's delivery policy, plus an
// empty→non-empty notification channel.
//
//   - PolicyDropOldest: overflow drops the oldest reflection (legacy).
//   - PolicyLatestValue: overflow coalesces to the newest reflection per
//     channel — the oldest buffered entry of the incoming reflection's
//     channel is replaced. When no same-channel entry exists (more
//     publishers than depth), the oldest overall is dropped.
//   - PolicyReliable: nothing is dropped; the ring grows. Growth is
//     bounded by the credit windows the subscription granted — publishers
//     stall before exceeding them — plus whatever a policy-ignorant
//     legacy publisher pushes.
type mailbox struct {
	mu     sync.Mutex
	policy wire.Policy
	buf    []Reflection
	head   int
	n      int
	closed bool
	notify chan struct{}
	stats  *Stats
	// Per-channel loss accounting, surfaced in Backbone.Tables so a lossy
	// channel can be named instead of inferred from the backbone total.
	tallies map[uint32]*ChannelTally
	// totals is the subscription-lifetime sum of the tallies: unlike the
	// per-channel entries it survives forgetChannel, so row-level
	// delivered/dropped/conflated counts stay monotonic across link
	// churn (a standing dist worker outlives many coordinators' virtual
	// channels). Channel and Peer are unused.
	totals ChannelTally
	// Per-channel credit accounting of a reliable subscription: the
	// cumulative consumption count the publisher's window runs on, and
	// the high-water mark of the last grant sent.
	credits map[uint32]*chanCredit
	// occupancy counts buffered reflections per channel, so latest-value
	// victim selection stays O(depth) instead of an O(depth²) duplicate
	// scan while the mailbox is full.
	occupancy map[uint32]int
}

type chanCredit struct {
	consumed  uint32
	lastGrant uint32
}

// ChannelTally is one virtual channel's loss accounting at a subscription
// mailbox.
type ChannelTally struct {
	Channel   uint32
	Peer      string // publishing node; filled by Tables
	Delivered uint64 // reflections buffered into the mailbox (frames in)
	Dropped   uint64 // reflections dropped (drop-oldest overflow)
	Conflated uint64 // reflections coalesced (latest-value overflow)
}

func newMailbox(depth int, policy wire.Policy, stats *Stats) *mailbox {
	return &mailbox{
		policy:    policy,
		buf:       make([]Reflection, depth),
		notify:    make(chan struct{}, 1),
		stats:     stats,
		tallies:   make(map[uint32]*ChannelTally),
		credits:   make(map[uint32]*chanCredit),
		occupancy: make(map[uint32]int),
	}
}

// forgetChannel drops a torn-down channel's credit and loss bookkeeping.
// Without this a long-lived subscription under link churn (a standing
// dist worker across coordinator restarts) accumulates a ghost entry per
// dead channel forever — and Tables would keep reporting them with no
// peer to attribute. Buffered reflections (and their occupancy) stay:
// they are real data the consumer may still drain.
func (m *mailbox) forgetChannel(id uint32) {
	m.mu.Lock()
	delete(m.credits, id)
	delete(m.tallies, id)
	m.mu.Unlock()
}

// noteConsumed counts one reflection drained from channel id; due reports
// whether a grant should go out — the batching threshold was crossed, or
// the entry is fresh. The fresh-entry grant keeps a subtle leak closed:
// draining leftovers of a torn-down channel resurrects its entry here,
// and the immediate grant attempt finds the channel gone (sendGrant's
// nil-channel path) and prunes it again.
func (m *mailbox) noteConsumed(id uint32, grantEvery uint32) (cum uint32, due bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.credits[id]
	if c == nil {
		c = &chanCredit{}
		m.credits[id] = c
	}
	c.consumed++
	if c.consumed-c.lastGrant >= grantEvery || c.consumed == 1 {
		c.lastGrant = c.consumed
		return c.consumed, true
	}
	return c.consumed, false
}

// consumedCount reads channel id's cumulative consumption (the heartbeat
// piggyback reads this under b.mu; the lock order b.mu → m.mu is safe
// because no mailbox method acquires b.mu).
func (m *mailbox) consumedCount(id uint32) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.credits[id]; c != nil {
		return c.consumed
	}
	return 0
}

// tally returns channel id's loss counters, creating them on first use.
// Caller holds m.mu.
func (m *mailbox) tally(id uint32) *ChannelTally {
	t := m.tallies[id]
	if t == nil {
		t = &ChannelTally{Channel: id}
		m.tallies[id] = t
	}
	return t
}

// at returns a pointer to the i-th buffered reflection (0 = oldest).
// Caller holds m.mu.
func (m *mailbox) at(i int) *Reflection { return &m.buf[(m.head+i)%len(m.buf)] }

// removeAt deletes the i-th buffered reflection, shifting newer entries
// down. Caller holds m.mu.
func (m *mailbox) removeAt(i int) {
	m.noteRemoved(m.at(i).Channel)
	for j := i; j < m.n-1; j++ {
		*m.at(j) = *m.at(j + 1)
	}
	*m.at(m.n - 1) = Reflection{}
	m.n--
}

// noteRemoved decrements a channel's occupancy count. Caller holds m.mu.
func (m *mailbox) noteRemoved(id uint32) {
	if n := m.occupancy[id] - 1; n > 0 {
		m.occupancy[id] = n
	} else {
		delete(m.occupancy, id) // keep the map bounded by live channels
	}
}

func (m *mailbox) push(r Reflection) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if m.n == len(m.buf) {
		switch m.policy {
		case wire.PolicyReliable:
			// Never drop: grow the ring (see the type comment for why this
			// stays bounded in practice).
			grown := make([]Reflection, 2*len(m.buf))
			for i := 0; i < m.n; i++ {
				grown[i] = *m.at(i)
			}
			m.buf, m.head = grown, 0
		case wire.PolicyLatestValue:
			// Coalesce to newest-per-channel: replace the oldest buffered
			// reflection of this channel, keeping per-channel seq order
			// (an older entry leaves, the newest lands at the tail). With
			// no same-channel entry, conflate the oldest entry of any
			// channel buffered more than once — a transient arrival
			// imbalance must not evict another channel's only sample. A
			// drop happens only when every slot holds a distinct channel,
			// i.e. the depth is smaller than the live publisher count.
			// The occupancy index keeps victim selection one O(depth)
			// scan, not an O(depth²) duplicate search per push.
			victim := -1
			if m.occupancy[r.Channel] > 0 {
				for i := 0; i < m.n; i++ {
					if m.at(i).Channel == r.Channel {
						victim = i
						break
					}
				}
			} else {
				for i := 0; i < m.n; i++ {
					if m.occupancy[m.at(i).Channel] >= 2 {
						victim = i
						break
					}
				}
			}
			if victim >= 0 {
				m.tally(m.at(victim).Channel).Conflated++
				m.totals.Conflated++
				m.stats.Conflations.Inc()
				m.removeAt(victim)
			} else {
				m.tally(m.at(0).Channel).Dropped++
				m.totals.Dropped++
				m.stats.MailboxDropped.Inc()
				m.removeAt(0)
			}
		default: // drop oldest
			m.tally(m.at(0).Channel).Dropped++
			m.totals.Dropped++
			m.stats.MailboxDropped.Inc()
			m.noteRemoved(m.at(0).Channel)
			m.head = (m.head + 1) % len(m.buf)
			m.n--
		}
	}
	m.buf[(m.head+m.n)%len(m.buf)] = r
	m.n++
	m.occupancy[r.Channel]++
	m.tally(r.Channel).Delivered++
	m.totals.Delivered++
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// channelTallies snapshots the per-channel loss counters.
// rowTallies returns the subscription-lifetime totals — the cumulative
// delivered/dropped/conflated counts across every virtual channel the
// subscription ever had, including torn-down ones.
func (m *mailbox) rowTallies() ChannelTally {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totals
}

func (m *mailbox) channelTallies() []ChannelTally {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ChannelTally, 0, len(m.tallies))
	for _, t := range m.tallies {
		out = append(out, *t)
	}
	return out
}

func (m *mailbox) poll() (Reflection, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return Reflection{}, false
	}
	r := m.buf[m.head]
	m.buf[m.head] = Reflection{} // release references
	m.head = (m.head + 1) % len(m.buf)
	m.n--
	m.noteRemoved(r.Channel)
	return r, true
}

// timerPool recycles Next's timeout timers. A timer goes back only after
// Stop-and-drain, so a pooled timer is never pending.
var timerPool sync.Pool

// errWaitDone reports that waitMailbox's done channel fired with nothing
// buffered; NextContext maps it to ctx.Err().
var errWaitDone = errors.New("cb: wait done")

// next is poll-then-wait with a plain timeout: the blocking form of the
// consumer hot path. Buffered data returns without touching the clock;
// otherwise the wait parks against a pooled timer.
func (m *mailbox) next(timeout time.Duration) (Reflection, bool) {
	if r, ok := m.poll(); ok {
		return r, true
	}
	var t *time.Timer
	if v := timerPool.Get(); v != nil {
		t = v.(*time.Timer)
		t.Reset(timeout)
	} else {
		t = time.NewTimer(timeout)
	}
	r, err := waitMailbox(m, t.C)
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
	return r, err == nil
}

// waitMailbox is the mailbox's one wait loop: poll, check for Close
// (ErrHandleClosed), then park on the notify channel until a push or
// done fires (errWaitDone). A push that races with done is still
// delivered. done is generic so a timer channel and ctx.Done() both fit
// without an adapter goroutine or allocation.
func waitMailbox[T any](m *mailbox, done <-chan T) (Reflection, error) {
	for {
		if r, ok := m.poll(); ok {
			return r, nil
		}
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return Reflection{}, ErrHandleClosed
		}
		select {
		case <-m.notify:
		case <-done:
			if r, ok := m.poll(); ok {
				return r, nil
			}
			return Reflection{}, errWaitDone
		}
	}
}

func (m *mailbox) pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}
