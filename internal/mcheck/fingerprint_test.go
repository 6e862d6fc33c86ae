package mcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestEncoderMatchesReference walks two seeded random interleavings of
// every scenario (Heavy ones only without -short), with Canon off and on,
// and checks at every visited state that the record the explorer builds
// writes exactly the reference walk's canonical bytes and that the state
// hash is the one built from the reference's sections. Each state's record
// is built from its parent's twice: from the walked world, as a first DFS
// child's is, and from a replayed copy of the parent, as its siblings'
// are. One explorer's scene and encoder serve each scenario and mode, so
// plan caching and scratch reuse across calls are exercised too.
//
// It also checks the premises the reuse rests on, each with every unit
// section walked alone. Each section walked alone writes the bytes the
// record holds for it, so its bytes do not depend on the sections before
// it. reduce.go's "one unit per action": after each action, every unit
// section other than the acting unit's equals the parent's record. And
// the transition memo's: one memo is kept across both walks of a scenario
// and mode, and every transition found in it must predict, from the
// parent's record alone, the record walked from the world, in bytes and
// hash. The test fails unless some state reuses a section holding a
// back-reference whose base in a whole-string walk moved, so the
// section-relative numbering is exercised, and unless some memo hit comes
// from a parent state other than the one that recorded the transition.
func TestEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	moved, hits, crossed := 0, 0, 0
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
								fmt.Sprintf(format, args...), strings.Join(sc.trace(path), "\n  "))
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
						}
						if parent != nil {
							sib := x.replay(path[:len(path)-1])
							sib.apply(path[len(path)-1])
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
	t.Logf("%d reused back-referencing sections sit at a moved base; %d memo hits predicted their record, %d from another parent",
		moved, hits, crossed)
}

// samePrediction compares a record predicted from the memo, and its hash,
// with the record walked from the world.
func samePrediction(pred *stateHash, predFp uint64, walked *stateHash, walkedFp uint64) error {
	for pos, s := range walked.secs {
		if p := pred.secs[pos]; !bytes.Equal(p.b, s.b) || p.h != s.h {
			return fmt.Errorf("section %d:\n  predicted %s\n  walked    %s", pos, p.b, s.b)
		}
	}
	if predFp != walkedFp {
		return fmt.Errorf("hash %016x, walked %016x", predFp, walkedFp)
	}
	return nil
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
