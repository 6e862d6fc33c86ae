package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// Directive is one parsed //spandex: comment. Only a comment whose text
// begins exactly "//spandex:" is a directive (the Go directive form: no
// space after the slashes). The kinds are a closed set, each with the
// grammar in forms:
//
//	//spandex:transition <Msg> from=<states> [to=<states>] [emits=<msgs>]
//	//spandex:unreachable <msgs> at=<states> <justification>
//	//spandex:flow queue <msgs> [at=<states>]
//	//spandex:flow wait <name> awaits=<msgs> via=<msgs> [opener=any]
//	//spandex:flow emit <Msg> dst=<units>
//	//spandex:maprange <justification>
//	//spandex:partialswitch <justification>
//	//spandex:poolret <justification>
//	//spandex:wallclock <justification>
//
// Every list splits on both ',' and '|'. The protocol directives (the
// forms with an operand) describe the unit whose method they sit in; the
// suppressions apply to their own line and the line below. A malformed,
// incomplete, misplaced or unknown directive carries one error, and a
// trailing "//" comment is not part of the directive.
type Directive struct {
	// Kind is the directive kind, with a flow directive's sub-kind:
	// "transition", "flow queue", "maprange", ...
	Kind string
	Pos  token.Pos
	// Recv is the receiver type of the method the directive sits in, ""
	// outside a method.
	Recv string
	// Operand is the first field of a protocol directive, split when the
	// form takes a list.
	Operand []string
	// Fields maps each key=<list> field to its list.
	Fields map[string][]string
	// Why is the trailing justification.
	Why string
	// Err says why the directive is malformed; Kind and Pos are then the
	// only other fields set.
	Err string
}

// form is the grammar of one directive kind.
type form struct {
	operand string   // what the first field names; "" when the form has none
	list    bool     // the operand is a list
	keys    []string // accepted fields: key=<list>, or a literal such as opener=any
	need    []string // required fields, as their errors name them
	why     string   // the error for a missing justification; "" when none is taken
}

var forms = map[string]form{
	"transition":    {operand: "message name", keys: []string{"from", "to", "emits"}, need: []string{"from="}},
	"unreachable":   {operand: "message list", list: true, keys: []string{"at"}, need: []string{"at=<states>"}, why: "a justification is required after at="},
	"flow queue":    {operand: "message list", list: true, keys: []string{"at"}},
	"flow wait":     {operand: "wait name", keys: []string{"awaits", "via", "opener=any"}, need: []string{"awaits=", "via="}},
	"flow emit":     {operand: "message name", keys: []string{"dst"}, need: []string{"dst="}},
	"maprange":      {why: "a justification is required"},
	"partialswitch": {why: "a justification is required"},
	"poolret":       {why: "a justification is required"},
	"wallclock":     {why: "a justification is required"},
}

// directiveSet is a package's parsed directives.
type directiveSet struct {
	list []*Directive
	// at indexes the well-formed directives by file, line and kind.
	at map[directiveLine]bool
}

type directiveLine struct {
	file string
	line int
	kind string
}

// Directives returns the package's //spandex: directives in source order,
// malformed ones included.
func (p *Package) Directives() []*Directive { return p.directives().list }

// directives scans the package's comments once, on first use.
func (p *Package) directives() *directiveSet {
	if p.dirs != nil {
		return p.dirs
	}
	p.dirs = &directiveSet{at: map[directiveLine]bool{}}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//spandex:") {
					continue
				}
				d := parseDirective(c.Text, enclosingRecv(f, c.Pos()))
				d.Pos = c.Pos()
				p.dirs.list = append(p.dirs.list, d)
				if d.Err == "" {
					pos := p.Fset.Position(d.Pos)
					p.dirs.at[directiveLine{pos.Filename, pos.Line, d.Kind}] = true
				}
			}
		}
	}
	return p.dirs
}

// DirectiveErr returns the package's first malformed directive as a
// positioned error, in the words annref reports it with, or nil.
func (p *Package) DirectiveErr() error {
	for _, d := range p.Directives() {
		if d.Err != "" {
			return fmt.Errorf("%s: %s", p.Fset.Position(d.Pos), d.Err)
		}
	}
	return nil
}

// parseDirective parses the text of one //spandex: comment found in a
// method of recv ("" outside a method).
func parseDirective(text, recv string) *Directive {
	rest := strings.TrimPrefix(text, "//spandex:")
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	d := &Directive{Recv: recv}
	if len(fields) > 0 {
		d.Kind, fields = fields[0], fields[1:]
	}
	fail := func(format string, args ...any) *Directive {
		return &Directive{Kind: d.Kind, Err: "//spandex:" + d.Kind + ": " + fmt.Sprintf(format, args...)}
	}
	if d.Kind == "flow" {
		if len(fields) < 2 {
			return fail("need a directive kind and operand")
		}
		if _, ok := forms["flow "+fields[0]]; !ok {
			return fail("unknown directive %q", fields[0])
		}
		d.Kind, fields = "flow "+fields[0], fields[1:]
	}
	f, ok := forms[d.Kind]
	if !ok {
		return fail("unknown directive kind; the kinds are transition, unreachable, flow, maprange, partialswitch, poolret and wallclock")
	}
	if f.operand != "" && recv == "" {
		return &Directive{Kind: d.Kind, Err: "//spandex:" + d.Kind + " directive outside a method body"}
	}
	if f.operand != "" {
		if len(fields) == 0 || strings.ContainsRune(fields[0], '=') {
			return fail("first field must be the %s", f.operand)
		}
		d.Operand = []string{fields[0]}
		if f.list {
			if d.Operand = splitList(fields[0]); len(d.Operand) == 0 {
				return fail("first field must be the %s", f.operand)
			}
		}
		fields = fields[1:]
	}
	for len(f.keys) > 0 && len(fields) > 0 {
		key, val, ok := strings.Cut(fields[0], "=")
		if !ok && f.why != "" {
			break // the justification starts here
		}
		list := splitList(val)
		switch {
		case !ok || len(list) == 0:
			return fail("malformed field %q", fields[0])
		case !slices.Contains(f.keys, key) && !slices.Contains(f.keys, fields[0]):
			return fail("unknown field %q", fields[0])
		case d.Fields[key] != nil:
			return fail("duplicate field %q", fields[0])
		}
		if d.Fields == nil {
			d.Fields = map[string][]string{}
		}
		d.Fields[key] = list
		fields = fields[1:]
	}
	for _, n := range f.need {
		if key, _, _ := strings.Cut(n, "="); d.Fields[key] == nil {
			return fail("%s is required", n)
		}
	}
	// Only a form that takes a justification can stop short of the end.
	if d.Why = strings.Join(fields, " "); f.why != "" && d.Why == "" {
		return fail(f.why)
	}
	return d
}

// splitList splits a directive list on ',' and '|', dropping empties.
func splitList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == '|' })
}

// enclosingRecv names the receiver type of the method whose declaration
// contains pos ("" when pos is not inside a method).
func enclosingRecv(f *ast.File, pos token.Pos) string {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Pos() <= pos && pos <= fd.End() {
			return RecvName(fd)
		}
	}
	return ""
}

// RecvName names a method's receiver type ("" when it is not a plain or
// pointer type name).
func RecvName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// ShortPos renders pos as "file.go:line", the form the graph artifacts
// record.
func (p *Package) ShortPos(pos token.Pos) string {
	position := p.Fset.Position(pos)
	name := position.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, position.Line)
}
