package main

import (
	"time"

	"spandex"
	"spandex/internal/device"
)

// spanKind names a layer boundary the traced run times: one public call of
// the program, or one call through the OpStream / L1Cache interfaces.
type spanKind int

const (
	spanSystemNew spanKind = iota
	spanWorkloadBuild
	spanSystemAttach
	spanSystemRun
	spanValidate
	spanWorkloadNext
	spanL1Access
	spanConformGenerate
	spanConformCheck
	spanMcheckExplore
	numSpans
)

var spanNames = [numSpans]string{
	"system_new", "workload_build", "system_attach", "system_run", "validate",
	"workload_next", "l1_access", "conform_generate", "conform_check", "mcheck_explore",
}

// spanAgg aggregates every span of one kind within one unit.
type spanAgg struct {
	Calls uint64
	Total time.Duration
	// Self is Total minus the time covered by spans nested inside.
	Self time.Duration
}

type openSpan struct {
	kind  spanKind
	start time.Time
	child time.Duration
}

// tracer records spans in memory, aggregated per (unit, span kind). A nil
// tracer records nothing, so the measured runs call the same code with the
// tracing compiled down to nil checks. Everything it records happens on one
// goroutine: coroutine bodies run inside OpStream.Next, which the tracer
// wraps from the caller's side.
type tracer struct {
	unit  int
	open  []openSpan
	units [][numSpans]spanAgg

	// L1 Access calls and how many the controller refused (MSHR or buffer
	// full; the device retries).
	accesses, refused uint64
}

func newTracer(nUnits int) *tracer {
	return &tracer{units: make([][numSpans]spanAgg, nUnits)}
}

// startUnit directs the following spans to unit i.
func (t *tracer) startUnit(i int) {
	if t == nil {
		return
	}
	t.unit = i
	t.open = t.open[:0] // a unit that panicked may have left spans open
}

func (t *tracer) begin(k spanKind) {
	if t == nil {
		return
	}
	t.open = append(t.open, openSpan{kind: k, start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	s := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := time.Since(s.start)
	a := &t.units[t.unit][s.kind]
	a.Calls++
	a.Total += d
	a.Self += d - s.child
	if n := len(t.open); n > 0 {
		t.open[n-1].child += d
	}
}

// selfSeconds sums one span kind's self time over every unit.
func (t *tracer) selfSeconds(k spanKind) float64 {
	var d time.Duration
	for i := range t.units {
		d += t.units[i][k].Self
	}
	return d.Seconds()
}

// wrapL1s puts a timing wrapper between every device and its L1. It runs
// after NewSystem and before Attach, which hands the L1s to the devices.
func (t *tracer) wrapL1s(s *spandex.System) {
	if t == nil {
		return
	}
	for _, l1s := range [][]device.L1Cache{s.CPUL1s, s.GPUL1s} {
		for i, l1 := range l1s {
			l1s[i] = t.wrapL1(l1)
		}
	}
}

// wrapL1 keeps the optional region-invalidation interface visible: devices
// type-assert for it, and hiding it would change simulated behaviour.
func (t *tracer) wrapL1(l1 device.L1Cache) device.L1Cache {
	w := &tracedL1{inner: l1, t: t}
	if ri, ok := l1.(device.RegionInvalidator); ok {
		return &tracedRegionL1{tracedL1: w, ri: ri}
	}
	return w
}

type tracedL1 struct {
	inner device.L1Cache
	t     *tracer
}

func (l *tracedL1) Access(op device.Op, done func(uint32)) bool {
	l.t.begin(spanL1Access)
	ok := l.inner.Access(op, done)
	l.t.end()
	l.t.accesses++
	if !ok {
		l.t.refused++
	}
	return ok
}

func (l *tracedL1) SelfInvalidate() {
	l.t.begin(spanL1Access)
	l.inner.SelfInvalidate()
	l.t.end()
}

func (l *tracedL1) Flush(done func()) {
	l.t.begin(spanL1Access)
	l.inner.Flush(done)
	l.t.end()
}

type tracedRegionL1 struct {
	*tracedL1
	ri device.RegionInvalidator
}

func (l *tracedRegionL1) SelfInvalidateRegion(lo, hi device.Addr) {
	l.t.begin(spanL1Access)
	l.ri.SelfInvalidateRegion(lo, hi)
	l.t.end()
}

// wrapStreams times every op stream's Next, which is where workload bodies
// run (as coroutines resumed by Next).
func (t *tracer) wrapStreams(p *spandex.Program) {
	if t == nil {
		return
	}
	for i, s := range p.CPU {
		if s != nil {
			p.CPU[i] = &tracedStream{inner: s, t: t}
		}
	}
	for _, warps := range p.GPU {
		for i, s := range warps {
			if s != nil {
				warps[i] = &tracedStream{inner: s, t: t}
			}
		}
	}
}

type tracedStream struct {
	inner device.OpStream
	t     *tracer
}

func (s *tracedStream) Next(prev device.OpResult) (device.Op, bool) {
	s.t.begin(spanWorkloadNext)
	op, ok := s.inner.Next(prev)
	s.t.end()
	return op, ok
}

// Close forwards to the wrapped stream, which Program.Close relies on to
// release unfinished coroutine bodies.
func (s *tracedStream) Close() {
	if c, ok := s.inner.(interface{ Close() }); ok {
		c.Close()
	}
}
