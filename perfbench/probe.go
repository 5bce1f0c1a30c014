package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"codsim/cod"
	"codsim/internal/fom"
)

// probeHz is the CB probe's open-loop send rate.
const probeHz = 200

// probeMsg is the probe's payload: its sequence number and when it was
// due, as nanoseconds after the probe's origin.
type probeMsg struct {
	Seq   int64
	DueNS int64
}

// cbProbe measures CB delivery latency on a workload's LAN from outside:
// a benchmark-owned publisher node sends probeHz updates on a Reliable
// channel to a benchmark-owned subscriber node. It is an open loop — each
// probe is due at origin + seq/probeHz whatever happened to the previous
// one — so its latency is timed from when it was due, which charges a
// stalled sender's backlog to the probes it delayed. How late the sender
// itself ran is reported separately.
type cbProbe struct {
	tr      *tracer
	pubNode *cod.Node
	subNode *cod.Node
	pub     *cod.Pub[probeMsg]
	sub     *cod.Sub[probeMsg]

	origin time.Time
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	latency []float64 // ms from due to delivery
	late    []float64 // ms the sender ran behind schedule
}

// startProbe attaches the probe's two nodes to lan, waits for their
// channel to match and starts the send and receive loops.
func startProbe(ctx context.Context, lan cod.LAN, tag string, tr *tracer) (*cbProbe, error) {
	p := &cbProbe{tr: tr}
	var err error
	if p.pubNode, err = cod.NewNode(tag+"-probe-pub", cod.WithLAN(lan)); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	if p.subNode, err = cod.NewNode(tag+"-probe-sub", cod.WithLAN(lan)); err != nil {
		p.closeNodes()
		return nil, fmt.Errorf("probe: %w", err)
	}
	if p.pub, err = cod.Publish[probeMsg](p.pubNode, "probe-pub", "bench.Probe"); err != nil {
		p.closeNodes()
		return nil, fmt.Errorf("probe: %w", err)
	}
	if p.sub, err = cod.Subscribe[probeMsg](p.subNode, "probe-sub", "bench.Probe", cod.Reliable(64)); err != nil {
		p.closeNodes()
		return nil, fmt.Errorf("probe: %w", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err = p.pub.WaitChannels(wctx, 1)
	cancel()
	if err != nil {
		p.closeNodes()
		return nil, fmt.Errorf("probe: channel never matched: %w", err)
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	p.cancel = cancelRun
	p.origin = time.Now()
	p.wg.Add(2)
	go p.send(runCtx)
	go p.receive(runCtx)
	return p, nil
}

func (p *cbProbe) send(ctx context.Context) {
	defer p.wg.Done()
	period := time.Second / probeHz
	for seq := int64(0); ; seq++ {
		due := time.Duration(seq) * period
		if wait := due - time.Since(p.origin); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		late := time.Since(p.origin) - due
		if err := p.pub.UpdateContext(ctx, 0, probeMsg{Seq: seq, DueNS: int64(due)}); err != nil {
			return // canceled: the probe is stopping
		}
		p.mu.Lock()
		p.late = append(p.late, float64(late)/1e6)
		p.mu.Unlock()
	}
}

func (p *cbProbe) receive(ctx context.Context) {
	defer p.wg.Done()
	for {
		r, err := p.sub.Next(ctx)
		if err != nil {
			return
		}
		now := time.Now()
		due := p.origin.Add(time.Duration(r.Value.DueNS))
		p.tr.add("cb.probe", fmt.Sprintf("probe-%d", r.Value.Seq), 0, due, now)
		p.mu.Lock()
		p.latency = append(p.latency, float64(now.Sub(due))/1e6)
		p.mu.Unlock()
	}
}

// stop ends both loops, waits for them and detaches the probe's nodes.
// Nil-safe, so untraced runs call it unconditionally.
func (p *cbProbe) stop() {
	if p == nil {
		return
	}
	p.cancel()
	p.wg.Wait()
	p.closeNodes()
}

func (p *cbProbe) closeNodes() {
	if p.pubNode != nil {
		_ = p.pubNode.Close()
	}
	if p.subNode != nil {
		_ = p.subNode.Close()
	}
}

// samples returns the latency and sender-lateness samples (ms).
func (p *cbProbe) samples() (latency, late []float64) {
	if p == nil {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.latency...), append([]float64(nil), p.late...)
}

// frameObserver is a benchmark-owned display-side node that subscribes to
// the swap-lock's FrameReady and FrameSwap classes, so render and barrier
// timings are read off the protocol itself: each FrameReady carries the
// display's render time, and the gap between consecutive FrameSwaps is
// the swap interval every display saw.
type frameObserver struct {
	tr   *tracer
	op   string
	root int64

	node   *cod.Node
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	renderMS []float64
	slowest  map[uint32]float64   // frame → slowest render time (s)
	readyAt  map[uint32]time.Time // frame → last FrameReady arrival
	waitMS   []float64
	lastSwap time.Time
}

// startObserver attaches the observer node to lan. FrameMark is the
// swap-lock's hand-coded wire format (a 4-byte frame index), not a cod
// codec struct, so the observer subscribes on the node's backbone and
// decodes with fom. Its subscriptions are drop-oldest with a deep queue,
// the same contract as the swap-lock's own endpoints: a Reliable observer
// that fell behind would stall the displays' FrameReady publisher and
// change what is measured.
func startObserver(ctx context.Context, lan cod.LAN, tr *tracer) (*frameObserver, error) {
	node, err := cod.NewNode("bench-frame-observer", cod.WithLAN(lan))
	if err != nil {
		return nil, fmt.Errorf("observer: %w", err)
	}
	bb := node.Backbone()
	ready, err := bb.SubscribeObjectClass("frame-observer", fom.ClassFrameReady, cod.WithQueue(4096), cod.DropOldest())
	if err != nil {
		_ = node.Close()
		return nil, fmt.Errorf("observer: %w", err)
	}
	swap, err := bb.SubscribeObjectClass("frame-observer", fom.ClassFrameSwap, cod.WithQueue(4096), cod.DropOldest())
	if err != nil {
		_ = node.Close()
		return nil, fmt.Errorf("observer: %w", err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	o := &frameObserver{
		tr: tr, node: node, cancel: cancel, done: make(chan struct{}),
		slowest: map[uint32]float64{}, readyAt: map[uint32]time.Time{},
	}
	go func() {
		defer close(o.done)
		for {
			for {
				r, ok := ready.Poll()
				if !ok {
					break
				}
				if mark, err := fom.DecodeFrameMark(r.Attrs); err == nil {
					o.onReady(mark, time.Now())
				}
			}
			for {
				r, ok := swap.Poll()
				if !ok {
					break
				}
				if mark, err := fom.DecodeFrameMark(r.Attrs); err == nil {
					o.onSwap(mark, time.Now())
				}
			}
			select {
			case <-runCtx.Done():
				return
			case <-ready.NotifyC():
			case <-swap.NotifyC():
			}
		}
	}()
	return o, nil
}

// setRoot names the exam span that reconstructed frame spans hang under.
func (o *frameObserver) setRoot(op string, root int64) {
	o.mu.Lock()
	o.op, o.root = op, root
	o.mu.Unlock()
}

func (o *frameObserver) onReady(mark fom.FrameMark, at time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.renderMS = append(o.renderMS, mark.RenderTime*1e3)
	if mark.RenderTime > o.slowest[mark.Frame] {
		o.slowest[mark.Frame] = mark.RenderTime
	}
	o.readyAt[mark.Frame] = at
	o.tr.add("render.frame", o.op, o.root, at.Add(-time.Duration(mark.RenderTime*1e9)), at)
}

func (o *frameObserver) onSwap(mark fom.FrameMark, at time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if slow, ok := o.slowest[mark.Frame]; ok && !o.lastSwap.IsZero() {
		interval := at.Sub(o.lastSwap).Seconds()
		o.waitMS = append(o.waitMS, (interval-slow)*1e3)
		o.tr.add("displaysync.wait", o.op, o.root, o.readyAt[mark.Frame], at)
	}
	// A FrameReady overtaken by its swap on the way to the observer would
	// otherwise linger: drop everything at or before the swapped frame.
	for f := range o.slowest {
		if f <= mark.Frame {
			delete(o.slowest, f)
			delete(o.readyAt, f)
		}
	}
	o.lastSwap = at
}

// stop ends the drain loop and detaches the node. Nil-safe.
func (o *frameObserver) stop() {
	if o == nil {
		return
	}
	o.cancel()
	<-o.done
	_ = o.node.Close()
}

// samples returns the render-time and barrier-wait samples (ms).
func (o *frameObserver) samples() (renderMS, waitMS []float64) {
	if o == nil {
		return nil, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]float64(nil), o.renderMS...), append([]float64(nil), o.waitMS...)
}
