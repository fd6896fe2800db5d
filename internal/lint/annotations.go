package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Ownership-domain annotation grammar (DESIGN.md "Ownership domains"):
//
//	//nomad:owner core|channel|shared|host    on a struct type's doc comment
//	//nomad:port <reason>                     on a function/method doc comment
//	//nomad:ephemeral <reason>                on a struct or field doc comment
//
// The owner annotation assigns every mutable model struct to the domain
// that owns it (a core, a DRAM channel, state shared between them, or the
// host); ports are the audited mediation sites where one domain may
// legitimately reach into another; ephemeral marks state that deliberately
// stays outside digest coverage. Keeping every cross-domain effect on a
// named, inventoried path is what keeps event order — the determinism
// contract — reviewable.
const (
	ownerMarker = "//nomad:owner"
	portMarker  = "//nomad:port"
	ephMarker   = "//nomad:ephemeral"
)

// Domain bits. A function's domain set is the union of the domains whose
// state it can be reached from without crossing a port; the empty set means
// host (setup, harness, reporting) and is materialized as domHost at check
// time.
const (
	domCore uint8 = 1 << iota
	domChannel
	domShared
	domHost
)

func parseDomain(s string) (uint8, bool) {
	switch s {
	case "core":
		return domCore, true
	case "channel":
		return domChannel, true
	case "shared":
		return domShared, true
	case "host":
		return domHost, true
	}
	return 0, false
}

func domainName(bit uint8) string {
	switch bit {
	case domCore:
		return "core"
	case domChannel:
		return "channel"
	case domShared:
		return "shared"
	case domHost:
		return "host"
	}
	return "?"
}

// domainNames renders a mask as "core+channel" in declaration order.
func domainNames(mask uint8) string {
	var parts []string
	for _, b := range []uint8{domCore, domChannel, domShared, domHost} {
		if mask&b != 0 {
			parts = append(parts, domainName(b))
		}
	}
	return strings.Join(parts, "+")
}

// fieldKey identifies a struct field by its declaring (origin) type and
// name, stable across generic instantiations.
type fieldKey struct {
	tn   *types.TypeName
	name string
}

type ownerInfo struct {
	domain uint8
	pos    token.Position
}

type portInfo struct {
	reason string
	pos    token.Position
}

type fieldInfo struct {
	name  string
	pos   token.Position
	ftype types.Type
}

type structInfo struct {
	tn     *types.TypeName
	pkg    *Package
	pos    token.Position
	fields []fieldInfo
}

// annotations is the parsed annotation state of a module plus the struct
// catalog both analyzers walk.
type annotations struct {
	owners   map[*types.TypeName]ownerInfo
	ports    map[*types.Func]portInfo
	ephType  map[*types.TypeName]bool
	ephField map[fieldKey]bool
	// pooled mirrors poolalloc's doc-marker convention at the type level,
	// shared here so the retention check needs no second doc scan.
	pooled  map[*types.TypeName]bool
	structs []structInfo
	diags   []Diagnostic
}

// cutMarker returns the text after marker when c is that directive (the
// marker must end at a word boundary, so //nomad:ownership is not an owner
// directive).
func cutMarker(text, marker string) (string, bool) {
	if text == marker {
		return "", true
	}
	if rest, ok := strings.CutPrefix(text, marker); ok && (rest[0] == ' ' || rest[0] == '\t') {
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// parseAnnotations scans every doc comment in the module for ownership
// annotations. Grammar violations and misplaced annotations are diagnosed
// under the rule that owns the marker ("ownership" for owner/port,
// "statecover" for ephemeral).
func parseAnnotations(mod *Module) *annotations {
	ann := &annotations{
		owners:   map[*types.TypeName]ownerInfo{},
		ports:    map[*types.Func]portInfo{},
		ephType:  map[*types.TypeName]bool{},
		ephField: map[fieldKey]bool{},
		pooled:   map[*types.TypeName]bool{},
	}
	for _, p := range mod.Sorted() {
		for _, f := range p.Files {
			consumed := map[*ast.Comment]bool{}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						ann.scanTypeSpec(mod, p, d, ts, consumed)
					}
				case *ast.FuncDecl:
					ann.scanFuncDecl(mod, p, d, consumed)
				}
			}
			// Any marker not consumed by a declaration scan sits somewhere
			// the annotation has no meaning (inside a body, on a var, …).
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if consumed[c] {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					switch {
					case isMarker(c.Text, ownerMarker):
						ann.bad(pos, "ownership", "//nomad:owner belongs on a struct type's doc comment")
					case isMarker(c.Text, portMarker):
						ann.bad(pos, "ownership", "//nomad:port belongs on a function or method doc comment")
					case isMarker(c.Text, ephMarker):
						ann.bad(pos, "statecover", "//nomad:ephemeral belongs on a struct or field doc comment")
					}
				}
			}
		}
	}
	return ann
}

func isMarker(text, marker string) bool {
	_, ok := cutMarker(text, marker)
	return ok
}

func (a *annotations) bad(pos token.Position, rule, msg string) {
	a.diags = append(a.diags, Diagnostic{Pos: pos, Rule: rule, Message: msg})
}

func (a *annotations) scanTypeSpec(mod *Module, p *Package, gd *ast.GenDecl, ts *ast.TypeSpec, consumed map[*ast.Comment]bool) {
	doc := ts.Doc
	if doc == nil {
		doc = gd.Doc
	}
	st, isStruct := ts.Type.(*ast.StructType)
	tn, _ := p.Info.Defs[ts.Name].(*types.TypeName)
	if doc != nil {
		for _, c := range doc.List {
			pos := mod.Fset.Position(c.Pos())
			if rest, ok := cutMarker(c.Text, ownerMarker); ok {
				consumed[c] = true
				switch {
				case !isStruct || tn == nil:
					a.bad(pos, "ownership", "//nomad:owner belongs on a struct type declaration")
				case len(strings.Fields(rest)) != 1:
					a.bad(pos, "ownership", "usage: //nomad:owner core|channel|shared|host")
				default:
					d, ok := parseDomain(rest)
					if !ok {
						a.bad(pos, "ownership", "unknown ownership domain "+strconvQuote(rest)+"; domains are core, channel, shared, host")
						break
					}
					if _, dup := a.owners[tn]; dup {
						a.bad(pos, "ownership", "duplicate //nomad:owner annotation on "+tn.Name())
						break
					}
					a.owners[tn] = ownerInfo{domain: d, pos: pos}
				}
			}
			if rest, ok := cutMarker(c.Text, ephMarker); ok {
				consumed[c] = true
				switch {
				case !isStruct || tn == nil:
					a.bad(pos, "statecover", "//nomad:ephemeral belongs on a struct or field declaration")
				case rest == "":
					a.bad(pos, "statecover", "//nomad:ephemeral needs a reason: //nomad:ephemeral <why this state may escape digests>")
				default:
					a.ephType[tn] = true
				}
			}
			if isMarker(c.Text, portMarker) {
				consumed[c] = true
				a.bad(pos, "ownership", "//nomad:port belongs on a function or method doc comment")
			}
		}
	}
	if !isStruct || tn == nil {
		return
	}
	if doc != nil && pooledDocMarker.MatchString(doc.Text()) {
		a.pooled[tn] = true
	}
	si := structInfo{tn: tn, pkg: p, pos: mod.Fset.Position(ts.Name.Pos())}
	for _, fl := range st.Fields.List {
		eph := a.scanFieldComments(mod, fl, tn, consumed)
		for _, nm := range fl.Names {
			var ft types.Type
			if v, ok := p.Info.Defs[nm].(*types.Var); ok {
				ft = v.Type()
			}
			si.fields = append(si.fields, fieldInfo{name: nm.Name, pos: mod.Fset.Position(nm.Pos()), ftype: ft})
			if eph {
				a.ephField[fieldKey{tn, nm.Name}] = true
			}
		}
	}
	a.structs = append(a.structs, si)
}

// scanFieldComments handles //nomad:ephemeral on a field's doc or trailing
// line comment and rejects the other markers there.
func (a *annotations) scanFieldComments(mod *Module, fl *ast.Field, tn *types.TypeName, consumed map[*ast.Comment]bool) bool {
	eph := false
	for _, grp := range []*ast.CommentGroup{fl.Doc, fl.Comment} {
		if grp == nil {
			continue
		}
		for _, c := range grp.List {
			pos := mod.Fset.Position(c.Pos())
			if rest, ok := cutMarker(c.Text, ephMarker); ok {
				consumed[c] = true
				if rest == "" {
					a.bad(pos, "statecover", "//nomad:ephemeral needs a reason: //nomad:ephemeral <why this state may escape digests>")
				} else {
					eph = true
				}
			}
			if isMarker(c.Text, ownerMarker) {
				consumed[c] = true
				a.bad(pos, "ownership", "//nomad:owner belongs on a struct type's doc comment, not a field")
			}
			if isMarker(c.Text, portMarker) {
				consumed[c] = true
				a.bad(pos, "ownership", "//nomad:port belongs on a function or method doc comment")
			}
		}
	}
	return eph
}

func (a *annotations) scanFuncDecl(mod *Module, p *Package, fd *ast.FuncDecl, consumed map[*ast.Comment]bool) {
	if fd.Doc == nil {
		return
	}
	for _, c := range fd.Doc.List {
		pos := mod.Fset.Position(c.Pos())
		if rest, ok := cutMarker(c.Text, portMarker); ok {
			consumed[c] = true
			if rest == "" {
				a.bad(pos, "ownership", "//nomad:port needs a reason: //nomad:port <why this crossing is mediated>")
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				a.ports[fn] = portInfo{reason: rest, pos: pos}
			}
		}
		if isMarker(c.Text, ownerMarker) {
			consumed[c] = true
			a.bad(pos, "ownership", "//nomad:owner belongs on a struct type's doc comment, not a function")
		}
		if isMarker(c.Text, ephMarker) {
			consumed[c] = true
			a.bad(pos, "statecover", "//nomad:ephemeral belongs on a struct or field declaration")
		}
	}
}
