package obs

import (
	"spandex/internal/memaddr"
	"spandex/internal/proto"
	"spandex/internal/sim"
)

// lineTableCap bounds the per-line history table: least recently
// touched lines age out, and the aged-out count is reported so a capped
// table is never mistaken for full coverage.
const lineTableCap = 4096

// dramRowShift buckets DRAM line addresses into 2 KiB rows — a
// representative DRAM row-buffer size — for the row-level access counts.
const dramRowShift = 11

// regionShift buckets line addresses into 4 KiB regions for the
// address-space heatmap.
const regionShift = 12

// linkAgg is one NoC endpoint's accumulating telemetry.
type linkAgg struct {
	msgs, bytes    uint64
	egressBytes    *tseries
	egressBacklog  *tseries
	ingressBacklog *tseries
}

// setAgg is one LLC set's conflict/eviction tally.
type setAgg struct {
	conflicts, evictions uint64
}

// rowAgg is one DRAM row's access tally.
type rowAgg struct {
	reads, writes uint64
}

// lineAgg is one line's history entry. Entries form an intrusive LRU
// list; the least recently touched ages out past lineTableCap.
type lineAgg struct {
	line memaddr.LineAddr
	// access counts requests delivered at an LLC node for this line;
	// mix splits them by traffic class.
	access uint64
	mix    [proto.NumClasses]uint64
	// sharerChurn sums sharer-set bit flips; ownerMoves sums words whose
	// ownership moved; revokes sums words revoked by RvkO probes;
	// forwards counts owner-indirection forwards.
	sharerChurn uint64
	ownerMoves  uint64
	revokes     uint64
	forwards    uint64
	// requestors is a bitset of device node ids (capped at 63) that
	// requested the line — a sharing-diversity signal.
	requestors uint64
	lastAt     sim.Time

	prev, next *lineAgg
}

// occKey names one occupancy series: a resource at a node.
type occKey struct {
	node proto.NodeID
	res  string
}

// Metrics is the deterministic system-level metrics engine: a registry of
// cycle-bucketed time series plus contention tallies, owned by a Recorder
// and fed exclusively from its event stream. Like the Recorder it belongs
// to one System and is single-threaded by construction; everything it
// aggregates is a pure function of the (deterministic) event stream, so
// two identical runs produce byte-identical reports.
type Metrics struct {
	// llc is the Recorder's set of LLC node ids; names labels nodes.
	llc   map[proto.NodeID]bool
	names map[int]string

	links map[proto.NodeID]*linkAgg
	occ   map[occKey]*tseries

	sets        map[int]*setAgg
	indirection *tseries
	revocations *tseries
	evictions   *tseries
	conflicts   *tseries

	dramRead, dramWrite           *tseries
	dramReads, dramWrites         uint64
	dramReadBytes, dramWriteBytes uint64
	rows                          map[uint64]*rowAgg

	lines        map[memaddr.LineAddr]*lineAgg
	lruHead      *lineAgg // most recently touched
	lruTail      *lineAgg // least recently touched
	linesEvicted uint64
	lineCap      int // lineTableCap; tests lower it
	regions      map[uint64]uint64
}

// newMetrics creates the registry for a Recorder whose LLC nodes are llc.
func newMetrics(llc map[proto.NodeID]bool) *Metrics {
	return &Metrics{
		llc:         llc,
		names:       make(map[int]string),
		links:       make(map[proto.NodeID]*linkAgg),
		occ:         make(map[occKey]*tseries),
		sets:        make(map[int]*setAgg),
		indirection: newTSeries(),
		revocations: newTSeries(),
		evictions:   newTSeries(),
		conflicts:   newTSeries(),
		dramRead:    newTSeries(),
		dramWrite:   newTSeries(),
		rows:        make(map[uint64]*rowAgg),
		lines:       make(map[memaddr.LineAddr]*lineAgg),
		lineCap:     lineTableCap,
		regions:     make(map[uint64]uint64),
	}
}

// SetNodeName labels a node for rendering (same interface the Chrome sink
// exposes, so System.nameNodes covers both).
func (m *Metrics) SetNodeName(node int, name string) { m.names[node] = name }

// isLineRequest reports whether a delivered message type is a device
// request the per-line history should count (responses, probes, acks and
// memory traffic are effects, not demand).
func isLineRequest(t proto.MsgType) bool {
	//spandex:partialswitch predicate: the non-request message types (responses, probes, acks, memory traffic) fall through to false by design
	switch t {
	case proto.ReqV, proto.ReqS, proto.ReqWT, proto.ReqO,
		proto.ReqWTData, proto.ReqOData, proto.ReqWB,
		proto.MGetS, proto.MGetM, proto.MPutM:
		return true
	default:
		return false
	}
}

// observe folds one event into the registry. Called from Recorder.Emit,
// so runs without a recorder never reach here.
func (m *Metrics) observe(ev Event) {
	//spandex:partialswitch op issue/done and LLC block/unblock events feed the latency layer, not the metrics registry
	switch ev.Kind {
	case EvMsgSend:
		if ev.Msg != nil {
			l := m.link(ev.Node)
			l.msgs++
			sz := uint64(ev.Msg.Bytes())
			l.bytes += sz
			l.egressBytes.add(ev.At, sz)
		}
	case EvLinkBacklog:
		l := m.link(ev.Node)
		if ev.Res == "egress" {
			l.egressBacklog.add(ev.At, ev.Arg)
		} else {
			l.ingressBacklog.add(ev.At, ev.Arg)
		}
	case EvMsgDeliver:
		if ev.Msg != nil && m.llc[ev.Node] && isLineRequest(ev.Msg.Type) {
			la := m.touchLine(ev.Msg.Line, ev.At)
			la.access++
			la.mix[proto.ClassOf(ev.Msg.Type)]++
			if r := ev.Msg.Requestor; r >= 0 {
				bit := uint(r)
				if bit > 63 {
					bit = 63
				}
				la.requestors |= 1 << bit
			}
			m.regions[uint64(ev.Msg.Line)>>regionShift]++
		}
	case EvOccupancy:
		k := occKey{node: ev.Node, res: ev.Res}
		s := m.occ[k]
		if s == nil {
			s = newTSeries()
			m.occ[k] = s
		}
		s.add(ev.At, ev.Arg)
	case EvLLCForward:
		m.indirection.add(ev.At, 1)
		if ev.Msg != nil {
			m.touchLine(ev.Msg.Line, ev.At).forwards++
		}
	case EvLLCRevoke:
		m.revocations.add(ev.At, ev.Arg)
		m.touchLine(ev.Addr.Line(), ev.At).revokes += ev.Arg
	case EvLLCEvict:
		m.evictions.add(ev.At, 1)
		m.set(int(ev.Arg)).evictions++
	case EvLLCConflict:
		m.conflicts.add(ev.At, 1)
		m.set(int(ev.Arg)).conflicts++
	case EvLineOwner:
		m.touchLine(ev.Addr.Line(), ev.At).ownerMoves += ev.Arg
	case EvLineSharer:
		m.touchLine(ev.Addr.Line(), ev.At).sharerChurn += ev.Arg
	case EvDRAMAccess:
		row := m.row(uint64(ev.Addr.Line()) >> dramRowShift)
		if ev.Res == "rd" {
			m.dramReads++
			m.dramReadBytes += ev.Arg
			m.dramRead.add(ev.At, ev.Arg)
			row.reads++
		} else {
			m.dramWrites++
			m.dramWriteBytes += ev.Arg
			m.dramWrite.add(ev.At, ev.Arg)
			row.writes++
		}
	}
}

func (m *Metrics) link(id proto.NodeID) *linkAgg {
	l := m.links[id]
	if l == nil {
		l = &linkAgg{
			egressBytes:    newTSeries(),
			egressBacklog:  newTSeries(),
			ingressBacklog: newTSeries(),
		}
		m.links[id] = l
	}
	return l
}

func (m *Metrics) set(idx int) *setAgg {
	s := m.sets[idx]
	if s == nil {
		s = &setAgg{}
		m.sets[idx] = s
	}
	return s
}

func (m *Metrics) row(idx uint64) *rowAgg {
	r := m.rows[idx]
	if r == nil {
		r = &rowAgg{}
		m.rows[idx] = r
	}
	return r
}

// touchLine returns line's history entry, creating it (and aging out the
// LRU entry past the cap) as needed, and moves it to the front of the LRU
// list. The aging order is a pure function of the event stream, so the
// surviving table is deterministic.
func (m *Metrics) touchLine(line memaddr.LineAddr, at sim.Time) *lineAgg {
	la := m.lines[line]
	if la == nil {
		la = &lineAgg{line: line}
		m.lines[line] = la
		m.lruPush(la)
		if len(m.lines) > m.lineCap {
			old := m.lruTail
			m.lruRemove(old)
			delete(m.lines, old.line)
			m.linesEvicted++
		}
	} else if m.lruHead != la {
		m.lruRemove(la)
		m.lruPush(la)
	}
	la.lastAt = at
	return la
}

func (m *Metrics) lruPush(la *lineAgg) {
	la.prev = nil
	la.next = m.lruHead
	if m.lruHead != nil {
		m.lruHead.prev = la
	}
	m.lruHead = la
	if m.lruTail == nil {
		m.lruTail = la
	}
}

func (m *Metrics) lruRemove(la *lineAgg) {
	if la.prev != nil {
		la.prev.next = la.next
	} else {
		m.lruHead = la.next
	}
	if la.next != nil {
		la.next.prev = la.prev
	} else {
		m.lruTail = la.prev
	}
	la.prev, la.next = nil, nil
}
