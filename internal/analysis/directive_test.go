package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// TestParseDirectiveErrors: each malformed form gives one error, naming
// the directive and the field at fault, and carries nothing else.
func TestParseDirectiveErrors(t *testing.T) {
	for _, tc := range []struct{ text, want string }{
		{"//spandex:transition", "//spandex:transition: first field must be the message name"},
		{"//spandex:transition from=I", "//spandex:transition: first field must be the message name"},
		{"//spandex:transition ReqV to=V", "//spandex:transition: from= is required"},
		{"//spandex:transition ReqV from=", `//spandex:transition: malformed field "from="`},
		{"//spandex:transition ReqV from=I to", `//spandex:transition: malformed field "to"`},
		{"//spandex:transition ReqV from=I emits=,|", `//spandex:transition: malformed field "emits=,|"`},
		{"//spandex:transition ReqV from=I bogus=V", `//spandex:transition: unknown field "bogus=V"`},
		{"//spandex:transition ReqV from=I from=V", `//spandex:transition: duplicate field "from=V"`},
		{"//spandex:unreachable at=V why", "//spandex:unreachable: first field must be the message list"},
		{"//spandex:unreachable ,| at=V why", "//spandex:unreachable: first field must be the message list"},
		{"//spandex:unreachable InvAck nowhere ever", "//spandex:unreachable: at=<states> is required"},
		{"//spandex:unreachable InvAck at= why", `//spandex:unreachable: malformed field "at="`},
		{"//spandex:unreachable InvAck at=V", "//spandex:unreachable: a justification is required after at="},
		{"//spandex:unreachable InvAck at=V // want x", "//spandex:unreachable: a justification is required after at="},
		{"//spandex:flow queue", "//spandex:flow: need a directive kind and operand"},
		{"//spandex:flow bogus x", `//spandex:flow: unknown directive "bogus"`},
		{"//spandex:flow queue ReqV at=", `//spandex:flow queue: malformed field "at="`},
		{"//spandex:flow queue ReqV to=I", `//spandex:flow queue: unknown field "to=I"`},
		{"//spandex:flow wait awaits=A via=V", "//spandex:flow wait: first field must be the wait name"},
		{"//spandex:flow wait +rvk via=RvkO", "//spandex:flow wait: awaits= is required"},
		{"//spandex:flow wait +rvk awaits=RspRvkO", "//spandex:flow wait: via= is required"},
		{"//spandex:flow wait +rvk awaits=RspRvkO via=RvkO opener=all", `//spandex:flow wait: unknown field "opener=all"`},
		{"//spandex:flow emit RvkO", "//spandex:flow emit: dst= is required"},
		{"//spandex:flow emit RvkO dst=", `//spandex:flow emit: malformed field "dst="`},
		{"//spandex:maprange", "//spandex:maprange: a justification is required"},
		{"//spandex:partialswitch   ", "//spandex:partialswitch: a justification is required"},
		{"//spandex:poolret // want x", "//spandex:poolret: a justification is required"},
		{"//spandex:unreachble InvAck at=V why", "//spandex:unreachble: unknown directive kind"},
		{"//spandex:transitions ReqV from=I", "//spandex:transitions: unknown directive kind"},
	} {
		d := parseDirective(tc.text, "LLC")
		if !strings.HasPrefix(d.Err, tc.want) {
			t.Errorf("%q: error %q, want %q", tc.text, d.Err, tc.want)
		}
		if d.Operand != nil || d.Fields != nil || d.Why != "" || d.Recv != "" {
			t.Errorf("%q: a malformed directive carries fields: %+v", tc.text, d)
		}
	}

	// A protocol directive describes the unit whose method it sits in; a
	// suppression may sit anywhere.
	if d := parseDirective("//spandex:flow emit RvkO dst=denovo-l1", ""); d.Err != "//spandex:flow emit directive outside a method body" {
		t.Errorf("misplaced flow emit: error %q", d.Err)
	}
	if d := parseDirective("//spandex:maprange sorted below: k=v", ""); d.Err != "" || d.Why != "sorted below: k=v" {
		t.Errorf("suppression outside a method: %+v", d)
	}
}

// TestDirectiveListsSplitOnCommaAndBar: every list operand and field
// parses the same whichever separator it is written with.
func TestDirectiveListsSplitOnCommaAndBar(t *testing.T) {
	for _, text := range []string{
		"//spandex:transition ReqV from=I,V to=F+fetch,I+fetch emits=MemRead,RvkO",
		"//spandex:unreachable ReqV,ReqS at=SO,O+inv plain SO never exists at rest",
		"//spandex:flow queue ReqV,ReqS at=I+fetch,F+fetch",
		"//spandex:flow wait +evict awaits=RspRvkO,InvAck via=RvkO,Inv opener=any",
		"//spandex:flow emit ReqV dst=core-mesitu,denovo-l1",
	} {
		comma := parseDirective(text, "LLC")
		bar := parseDirective(strings.ReplaceAll(text, ",", "|"), "LLC")
		if comma.Err != "" || !reflect.DeepEqual(comma, bar) {
			t.Errorf("%q: ',' parses to %+v, '|' to %+v", text, comma, bar)
		}
		if forms[comma.Kind].list && len(comma.Operand) != 2 {
			t.Errorf("%q: operand %q not split in two", text, comma.Operand)
		}
		for key, list := range comma.Fields {
			if key != "opener" && len(list) != 2 {
				t.Errorf("%q: %s= list %q not split in two", text, key, list)
			}
		}
	}
}

// TestPackageDirectives: one scan reads every exact //spandex: comment in
// source order, with its receiver, and reports the first malformed one
// with its position.
func TestPackageDirectives(t *testing.T) {
	src := `package p

type LLC struct{}

func (l *LLC) handle() {
	//spandex:transition ReqV from=I to=V
	// spandex:transition ReqX from=I
	//spandex:flow wait +fetch awaits=MemReadRsp
}

//spandex:maprange order normalized by the caller
func f() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "llc.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Fset: fset, Files: []*ast.File{f}}
	var got []string
	for _, d := range pkg.Directives() {
		got = append(got, d.Kind+"@"+d.Recv)
	}
	if want := []string{"transition@LLC", "flow wait@", "maprange@"}; !reflect.DeepEqual(got, want) {
		t.Errorf("directives %v, want %v", got, want)
	}
	if err := pkg.DirectiveErr(); err == nil || err.Error() != "llc.go:8:2: //spandex:flow wait: via= is required" {
		t.Errorf("DirectiveErr = %v", err)
	}
}
