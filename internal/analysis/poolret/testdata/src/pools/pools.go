// Package pools is golden testdata for the poolret analyzer.
package pools

// Pool stands in for sim.Pool: the analyzer matches Put on any named type
// called Pool.
type Pool[T any] struct{ free []*T }

func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	return new(T)
}

func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }

type txn struct {
	kind    int
	waiting []int
}

type llc struct {
	pool Pool[txn]
	txns map[int]*txn
}

// freeTxn is the wrapper shape the analyzer treats as a release.
func (l *llc) freeTxn(t *txn) { l.pool.Put(t) }

// Free with a non-pointer argument (the MSHR's Free(line)) is not a
// release of any tracked object.
func (l *llc) Free(line int) {}

func (l *llc) drain(t *txn) {}

func sched(fn func()) {}

func writeAfterPut(l *llc, t *txn) {
	l.pool.Put(t)
	t.kind = 1 // want `pooled t used after release to Put`
}

func readAfterPut(l *llc, t *txn) int {
	l.pool.Put(t)
	return t.kind // want `pooled t used after release to Put`
}

func useAfterFreeHelper(l *llc, t *txn) {
	l.freeTxn(t)
	l.drain(t) // want `pooled t used after release to freeTxn`
}

func doubleRelease(l *llc, t *txn) {
	l.freeTxn(t)
	l.pool.Put(t) // want `pooled t used after release to freeTxn`
}

func conditionAfterRelease(l *llc, t *txn) {
	l.pool.Put(t)
	if t.kind == 0 { // want `pooled t used after release to Put`
		return
	}
}

func captureAfterRelease(l *llc, t *txn) {
	l.pool.Put(t)
	sched(func() { t.kind = 2 }) // want `pooled t used after release to Put`
}

func rangeAfterRelease(l *llc, t *txn) {
	l.freeTxn(t)
	for i := range t.waiting { // want `pooled t used after release to freeTxn`
		_ = i
	}
}

// releaseLast is the blessed pattern: drain, read, then release.
func releaseLast(l *llc, t *txn) int {
	for i := range t.waiting {
		_ = t.waiting[i]
	}
	k := t.kind
	l.freeTxn(t)
	return k
}

// copyThenRelease: what outlives the release is copied out first.
func copyThenRelease(l *llc, t *txn) txn {
	cp := *t
	l.pool.Put(t)
	return cp
}

// rebindEndsTracking: t now names a different pooled object.
func rebindEndsTracking(l *llc, t *txn) {
	l.pool.Put(t)
	t = l.pool.Get()
	t.kind = 3
}

// branchReleaseDoesNotLeak: the common "if done { free; return }" shape.
func branchReleaseDoesNotLeak(l *llc, t *txn, done bool) {
	if done {
		l.freeTxn(t)
		return
	}
	t.kind = 4
}

// nonPointerFree: Free(line) releases nothing the analyzer tracks.
func nonPointerFree(l *llc, t *txn) {
	l.Free(t.kind)
	t.kind = 5
}

// releaseOtherVariable: releasing one txn says nothing about another.
func releaseOtherVariable(l *llc, a, b *txn) {
	l.freeTxn(a)
	b.kind = 6
}

// retire hands its parameter back to the pool but is not free*-named —
// the lexical false negative the depth-1 summary closes. Callers must
// treat a call to it as a release.
func (l *llc) retire(t *txn) {
	l.drain(t)
	l.pool.Put(t)
}

func useAfterHelperRelease(l *llc, t *txn) {
	l.retire(t)
	t.kind = 7 // want `pooled t used after release to retire`
}

// retireVia wraps a free*-named helper; the summary still sees the
// release at depth 1 (free* is a direct release inside retireVia).
func (l *llc) retireVia(t *txn) { l.freeTxn(t) }

func useAfterWrappedRelease(l *llc, t *txn) int {
	l.retireVia(t)
	return t.kind // want `pooled t used after release to retireVia`
}

// maybeRetire releases only on one branch, so its fall-through path does
// not release — calls to it are not releases, same rule as an inline
// "if done { free }".
func (l *llc) maybeRetire(t *txn, done bool) {
	if done {
		l.pool.Put(t)
	}
}

func helperBranchReleaseDoesNotLeak(l *llc, t *txn) {
	l.maybeRetire(t, false)
	t.kind = 8
}

// retireFirst releases only its first parameter; the summary carries the
// parameter index, so the second argument stays live at call sites.
func (l *llc) retireFirst(a, b *txn) {
	l.drain(b)
	l.pool.Put(a)
}

func releaseTracksArgumentIndex(l *llc, a, b *txn) {
	l.retireFirst(a, b)
	b.kind = 9
	a.kind = 10 // want `pooled a used after release to retireFirst`
}

// justifiedDirective: a //spandex:poolret with a justification suppresses
// the use on its own line or the line below.
func justifiedDirective(l *llc, t *txn) int {
	l.pool.Put(t)
	//spandex:poolret the pool is drained before reuse in this test
	return t.kind
}

// bareDirective: without a justification the directive does not suppress.
func bareDirective(l *llc, t *txn) int {
	l.pool.Put(t)
	//spandex:poolret
	return t.kind // want `pooled t used after release to Put`
}
