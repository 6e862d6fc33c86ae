package mcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestEncoderMatchesReference walks two seeded random interleavings of
// every scenario (Heavy ones only without -short), with Canon off and on,
// and checks at every visited state that the record the explorer builds
// writes exactly the reference walk's canonical bytes and that the state
// hash is the one built from the reference's sections. Each state's record
// is built from its parent's twice: from the walked world, as a first DFS
// child's is, and from the explorer's world reset and replayed to the
// parent, as a later sibling's may be. One explorer's scene and encoder
// serve each scenario and mode, so scratch reuse across calls is
// exercised too.
//
// It also checks the premises the reuse rests on, each with every unit
// section walked alone. Each section walked alone writes the bytes the
// record holds for it, and the record holds the unit facts the world
// reads now, so neither depends on the sections before it. reduce.go's
// "one unit per action": after each action, every unit section other than
// the acting unit's equals the parent's record. And the transition
// memo's: one memo is kept across both walks of a scenario and mode, and
// every transition found in it must predict, from the parent's record
// alone, the record walked from the world, in bytes, hash and unit facts.
// The test fails unless some state reuses a section holding a
// back-reference whose base in a whole-string walk moved, so the
// section-relative numbering is exercised, and unless some memo hit comes
// from a parent state other than the one that recorded the transition.
//
// At every state it also expands the record as the explorer does and
// compares the result with the world-based reference (reduce_ref_test.go):
// the enabled actions, the ample order and its size, and the child sleep
// sets under a random sleep set, drawn from the enabled actions' keys and
// a key no action has.
func TestEncoderMatchesReference(t *testing.T) {
	rng, sleepRng := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	moved, hits, crossed, ampled, slept := 0, 0, 0, 0, 0
	for _, p := range Pairings() {
		for _, scn := range Scenarios(p) {
			if testing.Short() && scn.Heavy {
				continue
			}
			for _, canon := range []bool{false, true} {
				x := newExplorer(Config{Scenario: scn}, Reduction{Canon: canon})
				sc, enc := x.sc, x.enc
				// memo maps each transition walked to what it did and the
				// hash of the state it was first walked from.
				type recorded struct {
					s  step
					fp uint64
				}
				memo := make(map[memoKey]recorded)
				states := 0
				for walk := 0; walk < 2; walk++ {
					w := newWorld(sc, nil)
					var path []int
					var parent *stateHash
					var parentFp uint64
					var parentRef []refSection
					var a action
					for {
						states++
						fail := func(format string, args ...any) {
							t.Fatalf("%s/%s canon=%v after %d actions: %s\n  %s", p, scn.Name, canon, len(path),
								fmt.Sprintf(format, args...), strings.Join(x.trace(path), "\n  "))
						}
						alone := sectionContents(enc, w)
						touched := sc.sectionOf(a.unit)
						cur := &stateHash{}
						var fp uint64
						if parent == nil {
							fp = enc.root(sc, w, cur)
						} else {
							for pos := range alone {
								if alone[pos] != nil && pos != touched && !bytes.Equal(alone[pos], parent.secs[pos].b) {
									fail("an action of unit %d changed root section %d:\n  before %s\n  after  %s",
										a.unit, pos, parent.secs[pos].b, alone[pos])
								}
							}
							key := x.key(parent, a)
							fp = enc.child(sc, cur, parent, a, enc.transition(sc, w, parent, a))
							if r, ok := memo[key]; ok {
								hits++
								if r.fp != parentFp {
									crossed++
								}
								pred := &stateHash{}
								if err := samePrediction(pred, enc.child(sc, pred, parent, a, r.s), cur, fp); err != nil {
									fail("the memoized transition mispredicts: %v", err)
								}
							} else {
								memo[key] = recorded{enc.transition(sc, w, parent, a), parentFp}
							}
						}
						ref := refCanonicalBytes(w)
						if err := matchesReference(cur, fp, ref); err != nil {
							fail("in place: %v", err)
						}
						for pos := range alone {
							if alone[pos] != nil && !bytes.Equal(alone[pos], cur.secs[pos].b) {
								fail("root section %d walked alone differs from the record:\n  alone  %s\n  record %s",
									pos, alone[pos], cur.secs[pos].b)
							}
							if f := cur.secs[pos].f; f != nil {
								now := enc.newFacts(sc, pos)
								w.readFacts(sc, pos, now)
								if !sameFacts(f, now) {
									fail("root section %d has facts %+v in the record, %+v in the world", pos, *f, *now)
								}
							}
						}
						if parent != nil {
							x.moveTo(nil)
							sib := x.moveTo(path)
							h := &stateHash{}
							fp := enc.child(sc, h, parent, a, enc.transition(sc, sib, parent, a))
							if err := matchesReference(h, fp, ref); err != nil {
								fail("from a replayed parent: %v", err)
							}
							for pos := range ref {
								if pos != touched && pos != sc.nbank+1 && ref[pos].backref && ref[pos].base != parentRef[pos].base {
									moved++
								}
							}
						}

						acts := w.enumActions()
						committed, kept, err := sameExpansion(sc, cur, w, acts, sleepRng)
						if err != nil {
							fail("%v", err)
						}
						if committed {
							ampled++
						}
						slept += kept
						if _, _, bad := w.violation(); bad || len(acts) == 0 {
							break
						}
						a = acts[rng.Intn(len(acts))]
						w.apply(a.flat)
						path = append(path, a.flat)
						parent, parentFp, parentRef = cur, fp, ref
					}
				}
				t.Logf("%s/%s canon=%v: %d states match", p, scn.Name, canon, states)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no state reused a back-referencing section whose base moved; section-relative numbering went untested")
	}
	if crossed == 0 {
		t.Fatalf("none of %d memo hits came from a parent other than the recording one; the memo's premise went untested", hits)
	}
	if ampled == 0 || slept == 0 {
		t.Fatalf("%d states committed to an ample group and %d child sleep sets kept a key; both must be exercised",
			ampled, slept)
	}
	t.Logf("%d reused back-referencing sections sit at a moved base; %d memo hits predicted their record, %d from another parent",
		moved, hits, crossed)
}

// samePrediction compares a record predicted from the memo, and its hash,
// with the record walked from the world: each section's bytes, hash and
// unit facts, and each pending message's record.
func samePrediction(pred *stateHash, predFp uint64, walked *stateHash, walkedFp uint64) error {
	for pos, s := range walked.secs {
		if p := pred.secs[pos]; !bytes.Equal(p.b, s.b) || p.h != s.h {
			return fmt.Errorf("section %d:\n  predicted %s\n  walked    %s", pos, p.b, s.b)
		}
		if p := pred.secs[pos]; (p.f == nil) != (s.f == nil) || p.f != nil && !sameFacts(p.f, s.f) {
			return fmt.Errorf("section %d: predicted facts %v, walked %v", pos, p.f, s.f)
		}
	}
	if !slices.EqualFunc(pred.msgs, walked.msgs, func(a, b msgRec) bool {
		return bytes.Equal(a.b, b.b) && a.h == b.h && a.src == b.src && a.dst == b.dst &&
			a.req == b.req && a.typ == b.typ && a.line == b.line
	}) {
		return fmt.Errorf("pending messages %v predicted, %v walked", pred.msgs, walked.msgs)
	}
	if predFp != walkedFp {
		return fmt.Errorf("hash %016x, walked %016x", predFp, walkedFp)
	}
	return nil
}

// sameFacts reports whether two units' facts are equal.
func sameFacts(a, b *unitFacts) bool {
	return a.next == b.next && a.inflight == b.inflight && a.issuable == b.issuable && a.finished == b.finished &&
		a.holds == b.holds && a.queued == b.queued && a.mentions == b.mentions && a.allocWait == b.allocWait &&
		slices.Equal(a.lines, b.lines)
}

// sameExpansion expands the state of record rec as the explorer does and
// compares the result with the world-based reference on w, in the same
// state, whose enabled actions are acts: the enabled actions, the ample
// order and its size, and the child sleep sets under a sleep set drawn
// with rng from the keys of the enabled actions and of a delivery no
// state has (a FIFO from DRAM to device 0). It returns whether the state
// commits to an ample group and how many keys the child sleep sets hold.
func sameExpansion(sc *scene, rec *stateHash, w *world, acts []action, rng *rand.Rand) (bool, int, error) {
	fr := &frame{rec: *rec}
	if got := fr.enabled(sc); !slices.Equal(got, acts) {
		return false, 0, fmt.Errorf("enabled actions %+v from the record, %+v from the world", got, acts)
	}
	if len(acts) == 0 {
		return false, 0, nil
	}
	ample := fr.ampleOrder(sc)
	refActs, refAmple := w.ampleOrder(slices.Clone(acts))
	if ample != refAmple || !slices.Equal(fr.acts, refActs) {
		return false, 0, fmt.Errorf("ample %d of %+v from the record, %d of %+v from the world",
			ample, fr.acts, refAmple, refActs)
	}
	sleep := []actKey{{unit: 0, src: int8(sc.ndev + sc.nbank)}}
	for _, a := range refActs {
		if rng.Intn(2) == 0 {
			sleep = append(sleep, a.key())
		}
	}
	rng.Shuffle(len(sleep), func(i, j int) { sleep[i], sleep[j] = sleep[j], sleep[i] })
	fr.childSleeps(sc, sleep)
	ref := w.childSleeps(refActs, sleep)
	kept := 0
	for i := range refActs {
		if !slices.Equal(fr.sleeps[i], ref[i]) {
			return false, 0, fmt.Errorf("under sleep set %+v, action %+v's child sleeps %+v from the record, %+v from the world",
				sleep, refActs[i], fr.sleeps[i], ref[i])
		}
		kept += len(ref[i])
	}
	return ample < len(acts), kept, nil
}

// TestHashRejectsPointerSharedBySections checks the guard under section
// reuse: a pointer reachable from two root sections would make one
// section's bytes depend on another's, so hashing must stop on it rather
// than write bytes a full walk would not.
func TestHashRejectsPointerSharedBySections(t *testing.T) {
	scn, err := ScenarioByName(Pairing{CPU: ProtoMESI, GPU: ProtoGPU}, "mp")
	if err != nil {
		t.Fatal(err)
	}
	sc := newScene(scn, FullReduction())
	w := newWorld(sc, nil)
	w.devs[1].l1 = w.devs[0].l1
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "two root sections") {
			t.Fatalf("hash did not stop on an L1 reachable from two device sections (recovered %v)", r)
		}
	}()
	newEncoder().root(sc, w, &stateHash{})
}

// matchesReference compares the record h that hash wrote, and the hash
// fp it returned, against the reference sections: the bytes must be the
// reference's, each stored section hash the hash of its bytes, and fp the
// state hash built from the reference's sections. A byte mismatch reports
// the first differing byte.
func matchesReference(h *stateHash, fp uint64, ref []refSection) error {
	var got, want []byte
	for _, s := range h.secs {
		got = append(got, s.b...)
	}
	var refSecs [][]byte
	for _, s := range ref {
		want = append(want, s.b...)
		refSecs = append(refSecs, s.b)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(want) && i < len(got) && want[i] == got[i] {
			i++
		}
		return fmt.Errorf("bytes differ at %d:\n  got  …%s\n  want …%s", i, excerpt(got, i), excerpt(want, i))
	}
	for pos, s := range h.secs {
		if s.h != sectionHash(s.b) {
			return fmt.Errorf("section %d stores hash %016x, its bytes hash to %016x", pos, s.h, sectionHash(s.b))
		}
	}
	if want := recordOf(refSecs...).sum(); fp != want {
		return fmt.Errorf("hash %016x, reference %016x", fp, want)
	}
	return nil
}

// recordOf returns a hashing record holding the given sections, each
// with its hash.
func recordOf(secs ...[]byte) *stateHash {
	f := &stateHash{}
	for _, b := range secs {
		f.secs = append(f.secs, section{b: b, h: sectionHash(b)})
	}
	return f
}

// sectionContents walks each unit section of w alone, numbering its
// pointers from 0, so that a section's bytes depend on its own unit's
// state only. The pending pool, assembled rather than walked, is nil.
func sectionContents(enc *encoder, w *world) [][]byte {
	var out [][]byte
	for pos := 0; pos < len(w.llcs)+2+len(w.devs); pos++ {
		if pos == len(w.llcs)+1 {
			out = append(out, nil)
			continue
		}
		clear(enc.visited)
		enc.buf, enc.next, enc.secBase = nil, 0, 0
		enc.section(w, pos)
		out = append(out, bytes.Clone(enc.buf))
	}
	return out
}

func excerpt(b []byte, at int) string {
	lo, hi := max(at-40, 0), min(at+40, len(b))
	return string(b[lo:hi])
}

// TestSectionHash checks the section hash and the state hash built from
// it: flipping any one bit of an input of 0–64 bytes changes the section
// hash, as does appending a zero byte, and swapping the contents of two
// sections changes the state hash.
func TestSectionHash(t *testing.T) {
	const text = "t<core.LLC>{lines=m1{u64:p{a[i3,]};};owner=p@0;}|"
	for _, fill := range []string{"zeros", "text"} {
		for n := 0; n <= 64; n++ {
			in := make([]byte, n)
			if fill == "text" {
				for i := range in {
					in[i] = text[i%len(text)]
				}
			}
			h := sectionHash(in)
			for i := range in {
				for bit := 0; bit < 8; bit++ {
					in[i] ^= 1 << bit
					if sectionHash(in) == h {
						t.Errorf("%s, length %d: flipping bit %d of byte %d left the hash at %016x", fill, n, bit, i, h)
					}
					in[i] ^= 1 << bit
				}
			}
			if sectionHash(append(in, 0)) == h {
				t.Errorf("%s, length %d: appending a zero byte left the hash at %016x", fill, n, h)
			}
		}
	}

	contents := [][]byte{[]byte("t<core.LLC>{st=u0;}|"), []byte("t<dram.Memory>{}|"), []byte("q0>2[]|"),
		[]byte("p{u1;}|"), []byte("p{u2;}|")}
	h := recordOf(contents...).sum()
	for i := range contents {
		for j := i + 1; j < len(contents); j++ {
			swapped := slices.Clone(contents)
			swapped[i], swapped[j] = swapped[j], swapped[i]
			if recordOf(swapped...).sum() == h {
				t.Errorf("swapping sections %d and %d left the state hash at %016x", i, j, h)
			}
		}
	}
}

// TestPlanCacheConcurrent uses the process's plan cache from several
// goroutines at once (run it under -race): explorations, whose lookups
// mostly hit, beside goroutines that compile plans for fresh struct types,
// whose misses publish. Each exploration must repeat a sequential one's
// counts, and each fresh type's plan must write the reference walk's
// bytes.
func TestPlanCacheConcurrent(t *testing.T) {
	scn, err := ScenarioByName(Pairing{CPU: ProtoMESI, GPU: ProtoDeNovo}, "race")
	if err != nil {
		t.Fatal(err)
	}
	want := Explore(Config{Scenario: scn})
	// Each of the eight goroutines sends one error at most.
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got := Explore(Config{Scenario: scn})
			if got.States != want.States || got.Transitions != want.Transitions || got.WalkedBytes != want.WalkedBytes ||
				got.ReplayedActions != want.ReplayedActions || got.Violation != nil {
				errs <- fmt.Errorf("concurrent exploration %+v, sequential %+v", got, want)
			}
		}()
		go func() {
			defer wg.Done()
			for i := range 50 {
				typ := reflect.StructOf([]reflect.StructField{
					{Name: fmt.Sprintf("W%d_%d", g, i), Type: reflect.TypeFor[[]uint32]()},
					{Name: "M", Type: reflect.TypeFor[map[string]*int]()},
				})
				v := reflect.New(typ).Elem()
				v.Field(0).Set(reflect.ValueOf([]uint32{uint32(g), uint32(i)}))
				v.Field(1).Set(reflect.ValueOf(map[string]*int{"a": new(int), "b": nil}))
				e := newEncoder()
				e.value(v)
				var ref bytes.Buffer
				(&refHasher{visited: make(map[uintptr]int)}).walk(v, &ref)
				if !bytes.Equal(e.buf, ref.Bytes()) {
					errs <- fmt.Errorf("%s: plan wrote %s, reference %s", typ, e.buf, ref.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
