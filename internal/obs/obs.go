// Package obs is the observability layer: request-lifecycle tracing,
// latency attribution, system-level metrics and timeline export for the
// simulated memory system.
//
// Every core memory operation can be assigned a request id (a "trace"),
// carried as pure metadata through device.Op and proto.Message. The
// instrumented components — device cores, the NoC, the Spandex LLC, DRAM
// — emit Events into a per-System Recorder, which
//
//  1. runs a per-request phase state machine attributing every tick
//     between issue and completion to exactly one phase (L1/MSHR wait,
//     network, LLC service, LLC blocking, owner indirection, DRAM), so
//     phase totals reconcile with end-to-end latency exactly;
//  2. aggregates log-bucketed latency histograms (p50/p90/p99/max) per
//     operation class plus the phase-breakdown table;
//  3. feeds the Metrics registry it owns: cycle-bucketed time series
//     (link traffic and backlog, queue/MSHR occupancy, LLC contention,
//     DRAM bandwidth) and the per-line sharing history; and
//  4. forwards every event to an optional Sink — the streaming JSONL
//     sink or the Chrome trace-event (Perfetto-loadable) exporter.
//
// There is one switch: a System either has a Recorder, which does all of
// the above, or has none. Without one, instrumentation sites are
// nil-checks on the Recorder pointer, traces stay zero, and no event is
// ever constructed. Observation never perturbs — a recorded run produces
// a bit-identical Result.Fingerprint to a bare run (enforced by
// TestObserverNeutrality).
package obs

import (
	"spandex/internal/memaddr"
	"spandex/internal/proto"
	"spandex/internal/sim"
)

// Phase is one latency-attribution bucket of a request's lifetime.
type Phase uint8

const (
	// PhaseL1 covers time in the device and its L1/TU: issue, MSHR wait,
	// secondary-miss coalescing, store buffering, fence drains, and the
	// final response-to-completion hop.
	PhaseL1 Phase = iota
	// PhaseNet is time on the interconnect (serialization + hops) for
	// non-forwarded, non-memory messages.
	PhaseNet
	// PhaseLLC is LLC service time: queued at the bank and being
	// processed, excluding blocked transactions.
	PhaseLLC
	// PhaseBlocked is time the request spent parked behind a blocking
	// LLC transaction (fetch, revocation, invalidation, eviction).
	PhaseBlocked
	// PhaseIndirection is the owner-indirection round trip: from the
	// moment the LLC forwards the request to the current owner until the
	// owner's direct response reaches the requestor (paper Fig. 1c/1d).
	PhaseIndirection
	// PhaseDRAM is the memory round trip: from the MemRead leaving the
	// LLC until the MemReadRsp is delivered back.
	PhaseDRAM

	// NumPhases is the number of phases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"L1/MSHR", "Network", "LLC", "LLC-blocked", "Indirection", "DRAM",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "Phase?"
}

// OpClass buckets device operations for latency reporting. It is defined
// here (not in internal/device) so protocol packages can report classes
// without importing the device package.
type OpClass uint8

const (
	// ClassLoad is a data load.
	ClassLoad OpClass = iota
	// ClassStore is a data store (latency is time to buffer acceptance).
	ClassStore
	// ClassAtomic is a read-modify-write or atomic read.
	ClassAtomic
	// ClassFence is a fence (latency is the ordering drain it waited on).
	ClassFence

	// NumOpClasses is the number of operation classes.
	NumOpClasses
)

var opClassNames = [NumOpClasses]string{"load", "store", "atomic", "fence"}

func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return "class?"
}

// EventKind enumerates instrumentation points.
type EventKind uint8

const (
	// EvOpIssue: a device issued a memory operation (Trace, Class, Node,
	// Addr are set).
	EvOpIssue EventKind = iota
	// EvOpDone: the operation's completion callback fired.
	EvOpDone
	// EvMsgSend: the NoC accepted a message; Arg is its computed
	// delivery time, so one event carries the full slice.
	EvMsgSend
	// EvMsgDeliver: the NoC handed the message to its destination.
	EvMsgDeliver
	// EvLLCBlock: the LLC parked the message behind a blocking
	// transaction (or started one on its behalf).
	EvLLCBlock
	// EvLLCUnblock: the blocking transaction resolved; the message
	// resumes LLC service.
	EvLLCUnblock
	// EvLLCForward: the LLC forwarded the request to the current owner
	// instead of answering (owner indirection).
	EvLLCForward
	// EvOccupancy: a resource's occupancy changed; Res names the
	// resource, Arg is the new occupancy.
	EvOccupancy
	// EvLinkBacklog: a message queued behind a busy NoC link at send
	// time; Node is the endpoint, Res is "egress" or "ingress", Arg is
	// the queuing delay in ticks the message will absorb there.
	EvLinkBacklog
	// EvLLCConflict: a line fetch parked because every frame in its
	// target set is mid-transaction; Addr is the line, Arg the set index.
	EvLLCConflict
	// EvLLCEvict: the LLC evicted a valid victim line; Addr is the
	// victim, Arg the set index.
	EvLLCEvict
	// EvLLCRevoke: the LLC sent an ownership-revocation probe (RvkO);
	// Addr is the line, Arg the number of words revoked.
	EvLLCRevoke
	// EvLineOwner: word ownership of a line moved between devices (or
	// returned to the LLC); Addr is the line, Arg the word count.
	EvLineOwner
	// EvLineSharer: a line's sharer set changed; Addr is the line, Arg
	// the number of sharer bits that flipped.
	EvLineSharer
	// EvDRAMAccess: DRAM served an access; Node is the memory endpoint,
	// Res is "rd" or "wr", Addr the line, Arg the data bytes moved.
	EvDRAMAccess

	numEventKinds
)

var eventNames = [numEventKinds]string{
	"OpIssue", "OpDone", "MsgSend", "MsgDeliver",
	"LLCBlock", "LLCUnblock", "LLCForward", "Occupancy",
	"LinkBacklog", "LLCConflict", "LLCEvict", "LLCRevoke",
	"LineOwner", "LineSharer", "DRAMAccess",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "Event?"
}

// Event is one instrumentation record. Which fields are meaningful
// depends on Kind; unused fields are zero.
type Event struct {
	// At is the simulated time the event happened.
	At sim.Time
	// Kind is the instrumentation point.
	Kind EventKind
	// Node is the component the event happened at.
	Node proto.NodeID
	// Trace is the request id the event belongs to (0 = untracked).
	Trace uint64
	// Class is the operation class (EvOpIssue/EvOpDone).
	Class OpClass
	// Addr is the operation's byte address (EvOpIssue).
	Addr memaddr.Addr
	// Msg is the message concerned (EvMsg*/EvLLC*). It is the network's
	// delivered copy: sinks must treat it as read-only and must not
	// retain it past the Event call.
	Msg *proto.Message
	// Arg is the event's auxiliary value: delivery time for EvMsgSend,
	// occupancy for EvOccupancy.
	Arg uint64
	// Res names the resource an EvOccupancy sample belongs to.
	Res string
}

// Sink consumes the event stream. Implementations must not mutate or
// retain Event.Msg and must not touch simulator state: a sink observes.
type Sink interface {
	Event(Event)
}

// FuncSink adapts a function into a Sink.
type FuncSink func(Event)

// Event implements Sink.
func (f FuncSink) Event(ev Event) { f(ev) }

// Tee fans the event stream out to multiple sinks in order.
func Tee(sinks ...Sink) Sink {
	out := make(teeSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

type teeSink []Sink

func (t teeSink) Event(ev Event) {
	for _, s := range t {
		s.Event(ev)
	}
}
