package obs

import (
	"spandex/internal/proto"
	"spandex/internal/sim"
)

// Config gives a Recorder its initial sink and the run's topology.
type Config struct {
	// Sink receives every event (may be nil).
	Sink Sink

	// LLCNodes are the node ids whose delivery means "LLC service":
	// the Spandex LLC, or the GPU L2 and the L3 directory in the
	// hierarchical baseline.
	LLCNodes []proto.NodeID
	// MemID is the DRAM node id.
	MemID proto.NodeID
}

// reqState is the phase machine of one live request.
type reqState struct {
	class   OpClass
	origin  proto.NodeID
	issueAt sim.Time
	cur     Phase
	since   sim.Time
	fwd     bool
	phases  [NumPhases]uint64
}

// ClassAgg aggregates completed requests of one operation class.
type classAgg struct {
	count  uint64
	total  uint64
	phases [NumPhases]uint64
	hist   Hist
}

// Recorder is the per-System event consumer: it assigns trace ids, runs
// the phase machine, aggregates the latency histograms, feeds the metrics
// registry it owns, and forwards events to the configured sink. A
// Recorder belongs to exactly one System and is not safe for concurrent
// use — the simulator is single-threaded, so no locking is needed (run
// isolation gives sweep parallelism).
type Recorder struct {
	cfg     Config
	llc     map[proto.NodeID]bool
	next    uint64
	live    map[uint64]*reqState
	agg     [NumOpClasses]classAgg
	metrics *Metrics
}

// New creates a Recorder.
func New(cfg Config) *Recorder {
	r := &Recorder{
		cfg:  cfg,
		llc:  make(map[proto.NodeID]bool, len(cfg.LLCNodes)),
		live: make(map[uint64]*reqState),
	}
	for _, id := range cfg.LLCNodes {
		r.llc[id] = true
	}
	r.metrics = newMetrics(r.llc)
	return r
}

// Metrics returns the recorder's metrics registry.
func (r *Recorder) Metrics() *Metrics { return r.metrics }

// SetSink installs (or replaces) the recorder's event sink.
func (r *Recorder) SetSink(s Sink) { r.cfg.Sink = s }

// Sink returns the current sink (nil if none).
func (r *Recorder) Sink() Sink { return r.cfg.Sink }

// NextTrace allocates the next request id. Ids are 1-based and
// deterministic: they follow device issue order, which is fixed by the
// event ordering of the deterministic engine.
func (r *Recorder) NextTrace() uint64 {
	r.next++
	return r.next
}

// Emit consumes one event. It must only be called from instrumentation
// sites guarded by a nil check on the Recorder pointer, so the disabled
// path costs a single comparison.
func (r *Recorder) Emit(ev Event) {
	if r.cfg.Sink != nil {
		r.cfg.Sink.Event(ev)
	}
	r.metrics.observe(ev)
	if ev.Kind != EvOccupancy {
		r.step(ev)
	}
}

// step advances the phase machine for the event's request. Events whose
// trace is zero or already finalized are ignored here (sinks still saw
// them): e.g. probes the LLC initiates on its own behalf, evictions,
// and writebacks carrying a stale trace of a completed request.
func (r *Recorder) step(ev Event) {
	if ev.Kind == EvOpIssue {
		r.live[ev.Trace] = &reqState{
			class:   ev.Class,
			origin:  ev.Node,
			issueAt: ev.At,
			cur:     PhaseL1,
			since:   ev.At,
		}
		return
	}
	st := r.live[ev.Trace]
	if st == nil {
		return
	}
	// Close the current phase interval up to this event.
	st.phases[st.cur] += uint64(ev.At - st.since)
	st.since = ev.At

	//spandex:partialswitch EvOpIssue returned above and Emit filters EvOccupancy; both are unreachable here
	switch ev.Kind {
	case EvOpDone:
		agg := &r.agg[st.class]
		agg.count++
		total := uint64(ev.At - st.issueAt)
		agg.total += total
		for p := Phase(0); p < NumPhases; p++ {
			agg.phases[p] += st.phases[p]
		}
		agg.hist.Add(total)
		delete(r.live, ev.Trace)
	case EvMsgSend:
		switch {
		case ev.Msg != nil && (ev.Msg.Dst == r.cfg.MemID || ev.Msg.Src == r.cfg.MemID):
			st.cur = PhaseDRAM
		case st.fwd:
			st.cur = PhaseIndirection
		default:
			st.cur = PhaseNet
		}
	case EvMsgDeliver:
		switch {
		case ev.Msg != nil && ev.Msg.Dst == st.origin:
			st.cur = PhaseL1
			st.fwd = false
		case r.llc[ev.Node]:
			st.cur = PhaseLLC
		case ev.Node == r.cfg.MemID:
			st.cur = PhaseDRAM
		default:
			st.cur = PhaseIndirection
		}
	case EvLLCBlock:
		st.cur = PhaseBlocked
	case EvLLCUnblock:
		st.cur = PhaseLLC
	case EvLLCForward:
		st.fwd = true
		st.cur = PhaseIndirection
	}
}

// Report flattens the aggregates into the exportable LatencyReport, one
// row per class in OpClass order.
func (r *Recorder) Report() *LatencyReport {
	rep := &LatencyReport{}
	for c := OpClass(0); c < NumOpClasses; c++ {
		agg := &r.agg[c]
		if agg.count == 0 {
			continue
		}
		cl := ClassLatency{
			Class:      c.String(),
			Count:      agg.count,
			TotalTicks: agg.total,
			Mean:       agg.hist.Mean(),
			P50:        agg.hist.Quantile(0.50),
			P90:        agg.hist.Quantile(0.90),
			P99:        agg.hist.Quantile(0.99),
			Max:        agg.hist.Max,
		}
		for p := Phase(0); p < NumPhases; p++ {
			cl.Phases[p] = agg.phases[p]
		}
		rep.Classes = append(rep.Classes, cl)
		rep.Requests += agg.count
	}
	rep.Unfinished = len(r.live)
	return rep
}
