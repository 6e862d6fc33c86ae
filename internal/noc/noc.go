// Package noc models the on-chip interconnect: per-endpoint link
// bandwidth serialization, per-class traffic accounting, and a choice of
// traversal models (Config.Topology) — the legacy point-to-point
// distance model, or switched 2D-mesh / ring topologies where every
// inter-router link serializes one message at a time and through-traffic
// queues at each hop.
//
// The model is deliberately simpler than a flit-level NoC simulator (the
// paper used Garnet) but preserves the two effects the evaluation depends
// on: (1) every message pays a distance-dependent latency, so hierarchical
// indirection costs extra hops, and (2) endpoints (and, in the switched
// topologies, every link along the route) have finite bandwidth, so
// protocols that move more bytes (line-granularity RfO, invalidation
// storms) suffer queuing delay at high request rates.
package noc

import (
	"fmt"

	"spandex/internal/obs"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

// Handler receives delivered messages.
type Handler interface {
	HandleMessage(m *proto.Message)
}

// Topology selects how messages traverse the interconnect.
type Topology uint8

const (
	// TopoDirect is the original point-to-point model: every message pays
	// a mesh-distance latency plus endpoint link serialization, but
	// through-traffic never contends. The paper's 9×6 matrix runs on this
	// model and its timing is bit-stable.
	TopoDirect Topology = iota
	// TopoMesh is a switched 2D mesh with XY (dimension-ordered) routing:
	// each inter-router link serializes one message at a time, so
	// through-traffic queues at every hop. Unloaded latency equals the
	// direct model's, making the two comparable.
	TopoMesh
	// TopoRing is a switched bidirectional ring with shortest-direction
	// routing (ties clockwise) and the same per-link contention model.
	TopoRing
)

// Config sets the interconnect timing parameters.
type Config struct {
	// HopLatency is the per-hop router+wire latency in ticks.
	HopLatency sim.Time
	// TicksPerByte is the inverse link bandwidth (serialization cost).
	TicksPerByte sim.Time
	// MeshWidth is the number of columns endpoints are laid out on.
	MeshWidth int
	// Topology selects the traversal model; the zero value is the legacy
	// direct model.
	Topology Topology
}

// DefaultConfig: 2-cycle (1 ns) hops, 32 B/CPU-cycle links, 6-wide mesh.
func DefaultConfig() Config {
	return Config{HopLatency: 1000, TicksPerByte: 16, MeshWidth: 6}
}

type endpoint struct {
	handler Handler
	x, y    int
	// egressFree / ingressFree are the times the endpoint's links become
	// available; messages serialize through them in order.
	egressFree  sim.Time
	ingressFree sim.Time
}

// Network connects endpoints and delivers messages with modeled latency.
// Delivery preserves point-to-point ordering: two messages with the same
// source and destination arrive in send order (the property a mesh with
// deterministic routing provides per virtual network, and which the
// protocols' race handling assumes for grant-before-probe ordering).
type Network struct {
	eng *sim.Engine
	st  *stats.Stats
	cfg Config
	eps []endpoint
	// pairLast is a dense src-major matrix of last delivery times, indexed
	// src*len(eps)+dst (a map here costs a hash per message send).
	pairLast []sim.Time
	// linkFree holds, for the switched topologies, the time each
	// inter-router link finishes serializing its current message: mesh
	// links index router*4+direction (E,W,N,S), ring links node*2+
	// direction (cw,ccw). Empty under TopoDirect.
	linkFree  []sim.Time
	intercept func(m *proto.Message)
	obs       *obs.Recorder
	pool      sim.Pool[deliverEvent]
}

// deliverEvent is a pooled in-flight message. The message payload is
// embedded by value and recycled as soon as the destination handler
// returns, so handlers (and observer sinks) must copy any message they
// retain past HandleMessage.
type deliverEvent struct {
	net *Network
	msg proto.Message
}

func (d *deliverEvent) Fire() {
	n := d.net
	m := &d.msg
	if n.obs != nil {
		n.obs.Emit(obs.Event{At: n.eng.Now(), Kind: obs.EvMsgDeliver,
			Node: m.Dst, Trace: m.Trace, Msg: m})
	}
	h := n.eps[m.Dst].handler
	if h == nil {
		panic(fmt.Sprintf("noc: no handler registered for node %d (msg %s)", m.Dst, m))
	}
	h.HandleMessage(m)
	n.pool.Put(d)
}

// DelayQueue defers messages by a fixed latency into a dispatch function.
// It is the pooled replacement for the Schedule-closure queuing idiom the
// translation units and LLC-like controllers share: Post copies the
// message into a recycled in-flight slot, so the steady state allocates
// nothing. The dispatch function must not retain the message past its
// return — it is recycled immediately after — so handlers clone at
// retention points (transaction origins, blocked-line queues).
type DelayQueue struct {
	eng   *sim.Engine
	d     sim.Time
	fn    func(*proto.Message)
	depth int
	pool  sim.Pool[delayedMsg]
}

type delayedMsg struct {
	q   *DelayQueue
	msg proto.Message
}

func (e *delayedMsg) Fire() {
	q := e.q
	q.depth--
	q.fn(&e.msg)
	q.pool.Put(e)
}

// NewDelayQueue creates a queue that hands each posted message to fn after
// d ticks. Messages posted at the same tick dispatch in post order.
func NewDelayQueue(eng *sim.Engine, d sim.Time, fn func(*proto.Message)) *DelayQueue {
	return &DelayQueue{eng: eng, d: d, fn: fn}
}

// Post schedules m's dispatch. The message is copied; the caller may reuse
// the struct.
func (q *DelayQueue) Post(m *proto.Message) {
	e := q.pool.Get()
	e.q = q
	e.msg = *m
	q.depth++
	q.eng.ScheduleEvent(q.d, e)
}

// Depth returns the number of messages posted but not yet dispatched —
// the queue's instantaneous occupancy.
func (q *DelayQueue) Depth() int { return q.depth }

// New creates a network with n endpoints laid out row-major on the mesh.
func New(eng *sim.Engine, st *stats.Stats, cfg Config, n int) *Network {
	if cfg.MeshWidth <= 0 {
		cfg.MeshWidth = 1
	}
	nw := &Network{eng: eng, st: st, cfg: cfg, eps: make([]endpoint, n),
		pairLast: make([]sim.Time, n*n)}
	for i := range nw.eps {
		nw.eps[i].x = i % cfg.MeshWidth
		nw.eps[i].y = i / cfg.MeshWidth
	}
	switch cfg.Topology {
	case TopoDirect:
		// Point-to-point: no inter-router links to track.
	case TopoMesh:
		// Router grid covers the full last row even when endpoints only
		// partially fill it: XY routes may cross routers with no endpoint.
		rows := (n + cfg.MeshWidth - 1) / cfg.MeshWidth
		nw.linkFree = make([]sim.Time, cfg.MeshWidth*rows*4)
	case TopoRing:
		nw.linkFree = make([]sim.Time, n*2)
	default:
		panic("noc: unknown topology")
	}
	return nw
}

// Register attaches the handler for node id. Every node must be registered
// before any message addressed to it is delivered.
func (n *Network) Register(id proto.NodeID, h Handler) {
	n.eps[id].handler = h
}

// SetObserver installs the observability recorder; nil disables
// instrumentation. Send emits EvMsgSend (with the computed delivery time
// in Arg) and EvMsgDeliver at the destination hand-off.
func (n *Network) SetObserver(r *obs.Recorder) { n.obs = r }

// NumNodes returns the number of endpoints.
func (n *Network) NumNodes() int { return len(n.eps) }

func (n *Network) hops(a, b proto.NodeID) sim.Time {
	ea, eb := &n.eps[a], &n.eps[b]
	dx := ea.x - eb.x
	if dx < 0 {
		dx = -dx
	}
	dy := ea.y - eb.y
	if dy < 0 {
		dy = -dy
	}
	return sim.Time(dx + dy + 1) // +1: local router traversal
}

// Mesh link directions (link index router*4+dir).
const (
	dirE = iota
	dirW
	dirN
	dirS
)

// claimLink advances the head time t across one switched link: wait for
// the link to finish its current message (emitting the wait as egress
// backlog at the upstream router), then occupy it for the message's own
// serialization time and pay the hop latency.
func (n *Network) claimLink(link, upstream int, now, t, ser sim.Time) sim.Time {
	if free := n.linkFree[link]; free > t {
		if n.obs != nil {
			n.obs.Emit(obs.Event{At: now, Kind: obs.EvLinkBacklog,
				Node: proto.NodeID(upstream), Res: "egress", Arg: uint64(free - t)})
		}
		t = free
	}
	n.linkFree[link] = t + ser
	return t + n.cfg.HopLatency
}

// routeMesh walks m's XY path (x dimension fully, then y), claiming each
// inter-router link, and returns the arrival time at the destination —
// one extra hop for ejection, so the unloaded latency matches the direct
// model's ser + HopLatency*(dx+dy+1).
func (n *Network) routeMesh(m *proto.Message, now, t, ser sim.Time) sim.Time {
	w := n.cfg.MeshWidth
	x, y := n.eps[m.Src].x, n.eps[m.Src].y
	tx, ty := n.eps[m.Dst].x, n.eps[m.Dst].y
	for x != tx || y != ty {
		var dir, nx, ny int
		switch {
		case x < tx:
			dir, nx, ny = dirE, x+1, y
		case x > tx:
			dir, nx, ny = dirW, x-1, y
		case y < ty:
			dir, nx, ny = dirS, x, y+1
		default:
			dir, nx, ny = dirN, x, y-1
		}
		router := y*w + x
		t = n.claimLink(router*4+dir, router, now, t, ser)
		x, y = nx, ny
	}
	return t + n.cfg.HopLatency
}

// routeRing walks m around the ring in the shortest direction (ties
// clockwise, toward increasing node ids), claiming each link.
func (n *Network) routeRing(m *proto.Message, now, t, ser sim.Time) sim.Time {
	sz := len(n.eps)
	fwd := int(m.Dst) - int(m.Src)
	if fwd < 0 {
		fwd += sz
	}
	cw := fwd <= sz-fwd
	steps := fwd
	if !cw {
		steps = sz - fwd
	}
	cur := int(m.Src)
	for i := 0; i < steps; i++ {
		if cw {
			t = n.claimLink(cur*2, cur, now, t, ser)
			cur++
			if cur == sz {
				cur = 0
			}
		} else {
			t = n.claimLink(cur*2+1, cur, now, t, ser)
			cur--
			if cur < 0 {
				cur = sz - 1
			}
		}
	}
	return t + n.cfg.HopLatency
}

// Port is a message sink that stamps the sender. L1 controllers send
// through a Port so the same controller works attached directly to the
// network (hierarchical configurations) or behind a translation unit
// (Spandex configurations).
type Port interface {
	Send(m *proto.Message)
}

type directPort struct {
	net *Network
	id  proto.NodeID
}

func (p directPort) Send(m *proto.Message) {
	m.Src = p.id
	p.net.Send(m)
}

// PortFor returns a Port sending directly onto the network as node id.
func (n *Network) PortFor(id proto.NodeID) Port { return directPort{net: n, id: id} }

// SetInterceptor installs a capture hook: when non-nil, Send hands every
// message (already validated) to fn instead of modeling latency and
// scheduling delivery. The message is the sender's, often a scratch slot
// it reuses for its next send: fn must copy it to keep it past its return.
// The interceptor delivers its copy, whenever it chooses, via Deliver.
// This is the model checker's entry point for enumerating delivery
// interleavings (internal/mcheck); traffic accounting and the latency
// model are bypassed entirely.
func (n *Network) SetInterceptor(fn func(m *proto.Message)) { n.intercept = fn }

// Reset clears the link times New started at zero: every endpoint's
// egress and ingress, every pair's last delivery and every switched link.
// Handlers, the interceptor, the observer and the delivery pool stay. The
// engine must be drained, as no delivery may still be in flight.
func (n *Network) Reset() {
	for i := range n.eps {
		n.eps[i].egressFree, n.eps[i].ingressFree = 0, 0
	}
	clear(n.pairLast)
	clear(n.linkFree)
}

// Deliver hands m synchronously to its destination handler, bypassing the
// latency model. Only meaningful under SetInterceptor, where the caller —
// not the network — decides delivery order.
func (n *Network) Deliver(m *proto.Message) {
	h := n.eps[m.Dst].handler
	if h == nil {
		panic(fmt.Sprintf("noc: no handler registered for node %d (msg %s)", m.Dst, m))
	}
	h.HandleMessage(m)
}

// Send queues m for delivery. The message is copied; callers may reuse the
// struct. Traffic is accounted at send time.
func (n *Network) Send(m *proto.Message) {
	if m.Src < 0 || int(m.Src) >= len(n.eps) || m.Dst < 0 || int(m.Dst) >= len(n.eps) {
		panic(fmt.Sprintf("noc: bad endpoints in %s", m))
	}
	if n.intercept != nil {
		n.intercept(m)
		return
	}
	size := m.Bytes()
	n.st.Traffic.Add(proto.ClassOf(m.Type), size)

	now := n.eng.Now()
	ser := sim.Time(size) * n.cfg.TicksPerByte

	src := &n.eps[m.Src]
	start := now
	if src.egressFree > start {
		start = src.egressFree
	}
	src.egressFree = start + ser

	var arrive sim.Time
	switch n.cfg.Topology {
	case TopoDirect:
		arrive = start + ser + n.cfg.HopLatency*n.hops(m.Src, m.Dst)
	case TopoMesh:
		arrive = n.routeMesh(m, now, start+ser, ser)
	case TopoRing:
		arrive = n.routeRing(m, now, start+ser, ser)
	default:
		panic("noc: unknown topology")
	}

	dst := &n.eps[m.Dst]
	deliver := arrive
	if dst.ingressFree > deliver {
		deliver = dst.ingressFree
	}
	pair := int(m.Src)*len(n.eps) + int(m.Dst)
	if last := n.pairLast[pair]; deliver <= last {
		deliver = last + 1
	}
	n.pairLast[pair] = deliver
	dst.ingressFree = deliver + ser

	d := n.pool.Get()
	d.net = n
	d.msg = *m
	if n.obs != nil {
		n.obs.Emit(obs.Event{At: now, Kind: obs.EvMsgSend, Node: m.Src,
			Trace: m.Trace, Msg: &d.msg, Arg: uint64(deliver)})
		// Link telemetry: queuing delay absorbed at a busy egress or
		// ingress link (zero-backlog sends stay silent).
		if start > now {
			n.obs.Emit(obs.Event{At: now, Kind: obs.EvLinkBacklog,
				Node: m.Src, Res: "egress", Arg: uint64(start - now)})
		}
		if deliver > arrive {
			n.obs.Emit(obs.Event{At: now, Kind: obs.EvLinkBacklog,
				Node: m.Dst, Res: "ingress", Arg: uint64(deliver - arrive)})
		}
	}
	n.eng.ScheduleEventAt(deliver, d)
}
