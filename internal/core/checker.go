package core

import (
	"fmt"

	"spandex/internal/detsort"
	"spandex/internal/memaddr"
	"spandex/internal/proto"
	"spandex/internal/sim"
)

// DefaultMaxViolations caps Checker.Violations when MaxViolations is left
// zero: a badly corrupted run repeats the same broken invariant on every
// transition, and an unbounded slice would turn one bug into an OOM.
const DefaultMaxViolations = 100

// Violation is one failed invariant, carrying enough context — simulation
// cycle, line address, and the (LLC state, message) pair being processed —
// to reproduce the failure standalone (re-run the same config/workload with
// -check and break at the cycle).
type Violation struct {
	// Cycle is the simulation time at which the invariant failed.
	Cycle sim.Time
	// Line is the line address the violated invariant concerns.
	Line memaddr.LineAddr
	// State is the canonical LLC state label (see stateLabel) the line was
	// in when the triggering message began processing; empty if the
	// violation was raised outside message processing (e.g. a TU audit).
	State string
	// Msg is the Ident of the message being processed, if any.
	Msg string
	// Text is the human-readable description of the broken invariant.
	Text string
}

func (v Violation) String() string {
	ctx := fmt.Sprintf("cycle=%d line=%#x", uint64(v.Cycle), uint64(v.Line))
	if v.State != "" {
		ctx += " state=" + v.State
	}
	if v.Msg != "" {
		ctx += " msg=" + v.Msg
	}
	return "[" + ctx + "] " + v.Text
}

// DeviceProbe lets the checker inspect a device cache's coherence state
// without going through the protocol.
type DeviceProbe interface {
	// ProbeOwned returns every word the device currently holds in stable
	// Owned state. Words whose ownership grant is still in flight toward
	// the device are excluded — only stable O is reported.
	ProbeOwned() map[memaddr.LineAddr]memaddr.WordMask
}

// Checker validates Spandex coherence invariants. Per-transition checks
// are structural and cheap; CheckQuiescent performs a global cross-device
// audit once the system has drained.
type Checker struct {
	probes map[proto.NodeID]DeviceProbe
	// Violations collects failed invariants instead of panicking when
	// Collect is true (used by tests asserting detection). At most
	// MaxViolations entries are kept; Dropped counts the overflow.
	Collect    bool
	Violations []Violation
	// MaxViolations bounds len(Violations); zero means
	// DefaultMaxViolations.
	MaxViolations int
	// Dropped counts violations discarded once the cap was reached.
	Dropped int
	// ctx is the (cycle, line, state, msg) context of the message currently
	// being processed, stamped onto every violation raised under it.
	ctx Violation
	// CheckEveryTransition arms the deep per-transition audit: on top of
	// CheckLine's structural checks, every LLC state change is audited for
	// SWMR/disjointness invariants (CheckTransition) and every MESI TU
	// message for bookkeeping consistency (MESITU audit). Costs roughly a
	// full scan of the TU's pending maps per message; see EXPERIMENTS.md
	// for the measured overhead.
	CheckEveryTransition bool
}

// NewChecker creates an empty checker.
func NewChecker() *Checker {
	return &Checker{probes: make(map[proto.NodeID]DeviceProbe)}
}

// AttachDevice registers a device's probe for quiescent auditing.
func (c *Checker) AttachDevice(id proto.NodeID, p DeviceProbe) {
	c.probes[id] = p
}

// Probe returns the probe AttachDevice registered for device id, or nil.
func (c *Checker) Probe(id proto.NodeID) DeviceProbe { return c.probes[id] }

// SetContext stamps the processing context copied onto every violation
// raised until the next SetContext. The LLC calls it (via observe) when a
// message starts processing; the MESI TU calls it from its audit.
func (c *Checker) SetContext(cycle sim.Time, line memaddr.LineAddr, state, msg string) {
	c.ctx = Violation{Cycle: cycle, Line: line, State: state, Msg: msg}
}

func (c *Checker) fail(format string, args ...interface{}) {
	v := c.ctx
	v.Text = fmt.Sprintf(format, args...)
	if c.Collect {
		max := c.MaxViolations
		if max <= 0 {
			max = DefaultMaxViolations
		}
		if len(c.Violations) >= max {
			c.Dropped++
			return
		}
		c.Violations = append(c.Violations, v)
		return
	}
	panic("core: invariant violated: " + v.String())
}

// CheckLine validates the structural invariants of one LLC line after a
// transition.
func (c *Checker) CheckLine(l *LLC, line memaddr.LineAddr) {
	e := l.array.Peek(line)
	if e == nil {
		return
	}
	st := &e.State
	for i := 0; i < memaddr.WordsPerLine; i++ {
		owned := st.ownedMask.Has(i)
		if owned && (st.owner[i] < 0 || int(st.owner[i]) >= len(l.devices)) {
			c.fail("line %#x word %d owned with bad owner %d", uint64(line), i, st.owner[i])
		}
		if !owned && st.owner[i] != noOwner {
			c.fail("line %#x word %d not owned but owner %d recorded", uint64(line), i, st.owner[i])
		}
	}
	if st.shared {
		// Shared and Owned coexist only during a blocking ReqS(1)
		// revocation (paper §III-B).
		if st.ownedMask != 0 {
			if t, ok := l.txns[line]; !ok || t.kind != txnRvk {
				c.fail("line %#x Shared with owned words %#04x outside a revocation",
					uint64(line), uint16(st.ownedMask))
			}
		}
		if st.sharers == 0 {
			c.fail("line %#x Shared with empty sharer set", uint64(line))
		}
	}
	if st.fetching {
		if _, ok := l.txns[line]; !ok {
			c.fail("line %#x fetching without a transaction", uint64(line))
		}
	}
}

// CheckTransition performs the deep per-transition audit of one LLC line
// (CheckEveryTransition mode). CheckLine validates the owner-array
// representation; this adds the invariants that must hold in every stable
// state: sharer bits only for registered devices, no sharers without the
// line-level Shared state, no ownership or sharers on a line whose data
// has not arrived from memory, and — outside a blocking transaction — no
// device simultaneously owning a word and sharing the line (SWMR).
func (c *Checker) CheckTransition(l *LLC, line memaddr.LineAddr) {
	e := l.array.Peek(line)
	if e == nil {
		return
	}
	st := &e.State
	if extra := st.sharers >> uint(len(l.devices)); extra != 0 {
		c.fail("line %#x has sharer bits %#x beyond the %d registered devices",
			uint64(line), st.sharers, len(l.devices))
	}
	if !st.shared && st.sharers != 0 {
		c.fail("line %#x has sharer bits %#x without Shared state", uint64(line), st.sharers)
	}
	if st.fetching {
		if st.ownedMask != 0 {
			c.fail("line %#x fetching with owned words %#04x", uint64(line), uint16(st.ownedMask))
		}
		if st.shared || st.sharers != 0 {
			c.fail("line %#x fetching with sharers", uint64(line))
		}
	}
	if _, mid := l.txns[line]; !mid && st.shared {
		st.ownedMask.ForEach(func(i int) {
			o := st.owner[i]
			if o >= 0 && int(o) < len(l.devices) && st.sharers&(1<<uint(o)) != 0 {
				c.fail("line %#x word %d: device index %d both owns the word and shares the line",
					uint64(line), i, o)
			}
		})
	}
}

// CheckQuiescent audits the whole system after the simulation drains:
// every word the LLC records as owned must be owned by exactly that
// device, every device-owned word must be recorded at the LLC (the
// inclusivity requirement, paper §III-F), and no transactions may remain.
func (c *Checker) CheckQuiescent(l *LLC) error {
	if len(l.txns) != 0 {
		line := detsort.Keys(l.txns)[0]
		t := l.txns[line]
		return fmt.Errorf("core: line %#x still has %s txn with %d waiters at quiescence",
			uint64(line), t.kind, len(t.waiting))
	}

	deviceOwned := make(map[memaddr.LineAddr][memaddr.WordsPerLine]int8)
	for _, id := range detsort.Keys(c.probes) {
		idx := int8(l.devIdx[id])
		owned := c.probes[id].ProbeOwned()
		for _, line := range detsort.Keys(owned) {
			if !l.HomesLine(line) {
				// Another bank of an interleaved LLC homes this line; its
				// own CheckQuiescent call audits it.
				continue
			}
			mask := owned[line]
			owners := deviceOwned[line]
			conflict := error(nil)
			mask.ForEach(func(i int) {
				if owners[i] != 0 {
					conflict = fmt.Errorf("core: word %d of line %#x owned by two devices (%d and %d)",
						i, uint64(line), owners[i]-1, idx)
				}
				owners[i] = idx + 1 // +1 so zero means "none"
			})
			if conflict != nil {
				return conflict
			}
			deviceOwned[line] = owners
		}
	}

	var err error
	l.array.ForEach(func(e *cacheEntry) {
		if err != nil {
			return
		}
		st := &e.State
		owners := deviceOwned[e.Line]
		for i := 0; i < memaddr.WordsPerLine; i++ {
			llcSays := st.ownedMask.Has(i)
			devSays := owners[i] != 0
			switch {
			case llcSays && !devSays:
				err = fmt.Errorf("core: LLC thinks device %d owns word %d of line %#x; no device agrees",
					st.owner[i], i, uint64(e.Line))
			case !llcSays && devSays:
				err = fmt.Errorf("core: device %d owns word %d of line %#x but the LLC lost the record (inclusivity)",
					owners[i]-1, i, uint64(e.Line))
			case llcSays && devSays && st.owner[i] != owners[i]-1:
				err = fmt.Errorf("core: owner mismatch on word %d of line %#x: LLC=%d device=%d",
					i, uint64(e.Line), st.owner[i], owners[i]-1)
			}
			if err != nil {
				return
			}
		}
		delete(deviceOwned, e.Line)
	})
	if err != nil {
		return err
	}
	for _, line := range detsort.Keys(deviceOwned) {
		owners := deviceOwned[line]
		for i, o := range owners {
			if o != 0 {
				return fmt.Errorf("core: device %d owns word %d of uncached line %#x (inclusivity)",
					o-1, i, uint64(line))
			}
		}
	}
	return nil
}
