package cod

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"codsim/internal/cb"
	"codsim/internal/transport"
)

// LAN is the network segment a federation runs on. The SDK re-exports the
// transport abstraction so callers never import internal packages:
// NewMemLAN builds the simulated segment, WithUDP a real-socket one.
type LAN = transport.LAN

// Stats re-exports the backbone's instrumentation counters.
type Stats = cb.Stats

// TableEntry re-exports one row of a Publication or Subscription table.
type TableEntry = cb.TableEntry

// ChannelTally re-exports one virtual channel's delivery/loss accounting
// within a TableEntry, so telemetry consumers (internal/obs, external
// harnesses) never import the backbone internals.
type ChannelTally = cb.ChannelTally

// MemLANOption tunes a simulated in-memory segment: latency, jitter,
// datagram loss, bandwidth and the impairment seed. The SDK re-exports
// the transport options so experiment harnesses never import internal
// packages.
type MemLANOption = transport.MemOption

// WithLatency delays every datagram by d on a simulated segment.
func WithLatency(d time.Duration) MemLANOption { return transport.WithLatency(d) }

// WithJitter adds up to d of random extra delay per datagram.
func WithJitter(d time.Duration) MemLANOption { return transport.WithJitter(d) }

// WithLoss drops each broadcast datagram with probability p in [0,1).
func WithLoss(p float64) MemLANOption { return transport.WithLoss(p) }

// WithBandwidth caps the segment's throughput in bytes per second.
func WithBandwidth(bytesPerSec float64) MemLANOption { return transport.WithBandwidth(bytesPerSec) }

// WithSeed pins the segment's impairment randomness, making a lossy or
// jittery run reproducible.
func WithSeed(seed int64) MemLANOption { return transport.WithSeed(seed) }

// NewMemLAN creates an in-memory LAN segment for nodes of one process,
// optionally impaired (latency, loss, ...) for experiments. Pass it to
// every node of the federation via WithLAN, or let a Federation manage
// the sharing.
func NewMemLAN(opts ...MemLANOption) LAN { return transport.NewMemLAN(opts...) }

// NewUDPLAN joins a real UDP/TCP segment of slots consecutive ports
// starting at basePort on host, returning the LAN handle directly — the
// standalone form of WithUDPSegment, for callers that hand one segment
// to several nodes or to sim.Config.
func NewUDPLAN(host string, basePort, slots int) (LAN, error) {
	return transport.NewUDPLAN(host, basePort, slots)
}

// defaultLAN is the process-wide segment used by nodes created without an
// explicit transport option, so the two-line quickstart just works.
var defaultLAN = struct {
	once sync.Once
	lan  LAN
}{}

func processLAN() LAN {
	defaultLAN.once.Do(func() { defaultLAN.lan = transport.NewMemLAN() })
	return defaultLAN.lan
}

// nodeConfig accumulates the functional options of NewNode.
type nodeConfig struct {
	lan    LAN
	lanErr error
	cfg    cb.Config
}

// Option configures a Node (and, through a Federation's defaults, every
// node of a federation).
type Option func(*nodeConfig)

// WithLAN attaches the node to an existing LAN segment — an in-memory one
// from NewMemLAN or any other transport.LAN the caller already holds.
// Every node of the federation must share the same segment. A nil lan
// falls back to the process-wide default in-memory segment.
func WithLAN(lan LAN) Option {
	return func(c *nodeConfig) { c.lan = lan }
}

// defaultUDPSlots is the segment size WithUDP assumes: the paper's rack
// held eight computers, sixteen leaves room to double it.
const defaultUDPSlots = 16

// WithUDP attaches the node to a real UDP/TCP segment. addr is
// "host:basePort"; the segment spans defaultUDPSlots consecutive UDP
// ports starting at basePort, one per computer. Every process of the
// federation must name the same segment. See WithUDPSegment to size the
// segment explicitly.
func WithUDP(addr string) Option {
	return func(c *nodeConfig) {
		host, portStr, err := net.SplitHostPort(addr)
		if err != nil {
			c.lanErr = fmt.Errorf("cod: WithUDP %q: %w", addr, err)
			return
		}
		base, err := strconv.Atoi(portStr)
		if err != nil {
			c.lanErr = fmt.Errorf("cod: WithUDP %q: bad port: %w", addr, err)
			return
		}
		WithUDPSegment(host, base, defaultUDPSlots)(c)
	}
}

// WithUDPSegment attaches the node to a UDP/TCP segment of slots
// consecutive ports starting at basePort.
func WithUDPSegment(host string, basePort, slots int) Option {
	return func(c *nodeConfig) {
		lan, err := transport.NewUDPLAN(host, basePort, slots)
		if err != nil {
			c.lanErr = fmt.Errorf("cod: UDP segment %s:%d+%d: %w", host, basePort, slots, err)
			return
		}
		c.lan = lan
	}
}

// WithTimers tunes the discovery and liveness timers: broadcast is the
// SUBSCRIPTION re-broadcast period while unmatched, refresh the slower
// period after matching (dynamic join), heartbeat the idle-link beacon
// period (peer death is declared at four missed beacons). Zero values
// keep the defaults.
func WithTimers(broadcast, refresh, heartbeat time.Duration) Option {
	return func(c *nodeConfig) {
		c.cfg.BroadcastInterval = broadcast
		c.cfg.RefreshInterval = refresh
		c.cfg.HeartbeatInterval = heartbeat
	}
}

// WithHeartbeatTimeout sets how long a silent link is tolerated before
// the peer is declared dead and its channels are torn down. Zero keeps
// the default. Tighten it together with WithTimers' heartbeat period in
// fast-failover experiment rigs.
func WithHeartbeatTimeout(d time.Duration) Option {
	return func(c *nodeConfig) { c.cfg.HeartbeatTimeout = d }
}

// WithClock pins the node's timestamp clock (establish-latency metrics,
// liveness bookkeeping). Timer scheduling still runs on real tickers;
// the hook makes timestamps deterministic for tests.
func WithClock(now func() time.Time) Option {
	return func(c *nodeConfig) { c.cfg.Now = now }
}

// WithMailboxDepth sets the default per-subscription buffer depth.
func WithMailboxDepth(depth int) Option {
	return func(c *nodeConfig) { c.cfg.MailboxDepth = depth }
}

// Node is one computer of the Cluster Of Desktops: a handle on its
// Communication Backbone through which local logical processes publish
// and subscribe. Create it with NewNode or Federation.Node and release it
// with Close. All methods are safe for concurrent use.
type Node struct {
	bb *cb.Backbone
}

// NewNode attaches a node to the LAN under the given unique name. Without
// a transport option the node joins a process-wide in-memory segment, so
// nodes of a quick single-process program find each other with no setup.
func NewNode(name string, opts ...Option) (*Node, error) {
	var c nodeConfig
	for _, o := range opts {
		o(&c)
	}
	return newNode(name, &c)
}

func newNode(name string, c *nodeConfig) (*Node, error) {
	if c.lanErr != nil {
		return nil, c.lanErr
	}
	if c.lan == nil {
		c.lan = processLAN()
	}
	bb, err := cb.New(c.lan, name, c.cfg)
	if err != nil {
		return nil, err
	}
	return &Node{bb: bb}, nil
}

// Name returns the node's unique name on the segment.
func (n *Node) Name() string { return n.bb.Node() }

// Addr returns the node's dialable stream address.
func (n *Node) Addr() string { return n.bb.Addr() }

// Stats returns the node's live instrumentation counters. The pointer
// stays valid for the node's lifetime.
func (n *Node) Stats() *Stats { return n.bb.Stats() }

// Tables returns snapshots of the node's Publication and Subscription
// tables, for monitoring.
func (n *Node) Tables() (pubs, subs []TableEntry) { return n.bb.Tables() }

// Backbone exposes the underlying Communication Backbone for the internal
// simulator modules (displaysync, timesync, sim) that predate the SDK.
// New code should stay on the typed Publish/Subscribe surface.
func (n *Node) Backbone() *cb.Backbone { return n.bb }

// Close tears down every registration and channel of the node and
// detaches it from the LAN. Close is idempotent.
func (n *Node) Close() error { return n.bb.Close() }
