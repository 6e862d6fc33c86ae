// Package dram models the backing memory: a fixed-latency store of cache
// lines addressed at line granularity. It is the ultimate home of every
// line; the LLC fetches lines with MemRead and evicts dirty lines with
// MemWrite.
package dram

import (
	"spandex/internal/detsort"
	"spandex/internal/memaddr"
	"spandex/internal/noc"
	"spandex/internal/obs"
	"spandex/internal/proto"
	"spandex/internal/sim"
	"spandex/internal/stats"
)

// Memory is a DRAM model. It answers MemRead after a configurable access
// latency and absorbs MemWrite.
type Memory struct {
	ID      proto.NodeID
	eng     *sim.Engine
	net     *noc.Network
	latency sim.Time
	lines   map[memaddr.LineAddr]memaddr.LineData
	obs     *obs.Recorder
	pool    sim.Pool[readRsp]
}

// readRsp is a pooled pending MemRead answer; the line data is looked up
// at response time, after the access latency has elapsed. out is the
// response scratch slot: Send copies the message before returning, so
// building it in the pooled struct avoids a heap-allocated literal.
type readRsp struct {
	mem  *Memory
	line memaddr.LineAddr
	req  proto.NodeID
	id   uint64
	src  proto.NodeID
	tr   uint64
	out  proto.Message
}

func (r *readRsp) Fire() {
	m := r.mem
	r.out = proto.Message{
		Type: proto.MemReadRsp, Src: m.ID, Dst: r.src,
		Requestor: r.req, ReqID: r.id,
		Line: r.line, Mask: memaddr.FullMask,
		HasData: true, Data: m.lines[r.line], Trace: r.tr,
	}
	m.net.Send(&r.out)
	m.pool.Put(r)
}

// New creates a memory endpoint with the given access latency in ticks.
func New(id proto.NodeID, eng *sim.Engine, net *noc.Network, latency sim.Time) *Memory {
	m := &Memory{ID: id, eng: eng, net: net, latency: latency,
		lines: make(map[memaddr.LineAddr]memaddr.LineData)}
	net.Register(id, m)
	return m
}

// Reset empties memory, as New returns it; the map keeps its capacity.
// The engine must be drained, as no read may still be in flight.
func (m *Memory) Reset() { clear(m.lines) }

// SetObserver installs the observability recorder; nil disables
// instrumentation. HandleMessage emits EvDRAMAccess per access with the
// data bytes moved in Arg.
func (m *Memory) SetObserver(r *obs.Recorder) { m.obs = r }

// HandleMessage implements noc.Handler.
func (m *Memory) HandleMessage(msg *proto.Message) {
	switch msg.Type {
	case proto.MemRead:
		r := m.pool.Get()
		r.mem = m
		r.line, r.req, r.id = msg.Line, msg.Requestor, msg.ReqID
		r.src, r.tr = msg.Src, msg.Trace
		if m.obs != nil {
			m.obs.Emit(obs.Event{At: m.eng.Now(), Kind: obs.EvDRAMAccess,
				Node: m.ID, Res: "rd", Addr: memaddr.Addr(msg.Line),
				Arg: memaddr.LineBytes})
		}
		m.eng.ScheduleEvent(m.latency, r)
	case proto.MemWrite:
		cur := m.lines[msg.Line]
		cur.Merge(&msg.Data, msg.Mask)
		m.lines[msg.Line] = cur
		if m.obs != nil {
			m.obs.Emit(obs.Event{At: m.eng.Now(), Kind: obs.EvDRAMAccess,
				Node: m.ID, Res: "wr", Addr: memaddr.Addr(msg.Line),
				Arg: uint64(msg.Mask.Bytes())})
		}
	default:
		panic("dram: unexpected message " + msg.Type.String())
	}
}

// Peek returns the current contents of a line (testing/oracle use).
func (m *Memory) Peek(line memaddr.LineAddr) memaddr.LineData { return m.lines[line] }

// Poke sets the contents of a line directly (workload initialization).
func (m *Memory) Poke(line memaddr.LineAddr, data memaddr.LineData) { m.lines[line] = data }

// Fingerprint returns a deterministic FNV-1a hash of the current memory
// image: every populated line's address and contents, visited in sorted
// address order so the hash is independent of map iteration. Note this is
// the DRAM image only — dirty words still held in caches at quiescence are
// not included — but it is a deterministic function of the run, which is
// what sweep determinism verification needs.
func (m *Memory) Fingerprint() uint64 {
	h := stats.FNVOffset()
	for _, a := range detsort.Keys(m.lines) {
		h = stats.FNVAdd(h, uint64(a))
		line := m.lines[a]
		for _, w := range line {
			h = stats.FNVAdd(h, uint64(w))
		}
	}
	return h
}
