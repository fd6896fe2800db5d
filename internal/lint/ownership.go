package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// writeAllow is the domain write matrix: which domains may write state owned
// by each domain without going through a port. host may touch anything it
// owns plus shared (setup and reporting run at barriers); shared state is
// mediated by design (carriers, scheduler, orchestrator); core and channel
// state is writable only by its own domain and
// by host-phase code.
var writeAllow = map[uint8]uint8{
	domCore:    domCore | domHost,
	domChannel: domChannel | domHost,
	domShared:  domCore | domChannel | domShared | domHost,
	domHost:    domHost | domShared,
}

// seedDomains assigns each annotated type's methods their owner domain and
// propagates domain reachability through the graph. Propagation stops at
// ports (a port forwards only its own seed: the crossing is mediated), at
// methods of annotated types (they re-seed to their owner), and never
// follows dynamic edges (a callback belongs to the domain that created it;
// cross-domain delivery is assumed mediated by shared-owned queues).
func seedDomains(cg *callGraph, ann *annotations) {
	var work []*cgNode
	for _, n := range cg.nodes {
		if n.fn != nil && n.recv != nil {
			if oi, ok := ann.owners[n.recv]; ok {
				n.seed = oi.domain
				n.mask = oi.domain
			}
		}
		if n.mask != 0 {
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		out := n.mask
		if n.port {
			out = n.seed
		}
		if out == 0 {
			continue
		}
		for _, e := range n.out {
			if e.kind == edgeDynamic {
				continue
			}
			t := e.to
			if t.port {
				continue
			}
			if t.fn != nil && t.recv != nil {
				if _, owned := ann.owners[t.recv]; owned {
					continue
				}
			}
			if nm := t.mask | out; nm != t.mask {
				t.mask = nm
				work = append(work, t)
			}
		}
	}
}

// mutatingMethods computes, per annotated type, the methods that write the
// type's own fields directly or via same-type method calls.
func mutatingMethods(cg *callGraph, ann *annotations, acc *accesses) map[*types.Func]bool {
	mut := map[*types.Func]bool{}
	for _, w := range acc.writes {
		n := w.node
		if n == nil || n.fn == nil || n.recv == nil {
			continue
		}
		if _, owned := ann.owners[n.recv]; !owned {
			continue
		}
		if w.tn == n.recv {
			mut[n.fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range cg.nodes {
			if n.fn == nil || n.recv == nil || mut[n.fn] {
				continue
			}
			if _, owned := ann.owners[n.recv]; !owned {
				continue
			}
			for _, e := range n.out {
				if e.kind != edgeStatic {
					continue
				}
				t := e.to
				if t.fn != nil && t.recv == n.recv && mut[t.fn] {
					mut[n.fn] = true
					changed = true
					break
				}
			}
		}
	}
	return mut
}

// checkOwnership runs the ownership rule: annotation coverage, the domain
// write matrix, cross-domain mutating calls, pooled-pointer retention, and
// the committed-inventory diff.
func checkOwnership(mod *Module, cfg *Config, ann *annotations, cg *callGraph, acc *accesses) []Diagnostic {
	var diags []Diagnostic
	scope := func(ip string) bool { return cfg.isOwnership(mod.Path, ip) }

	// (a) every mutable struct in scope carries an owner annotation.
	for _, si := range ann.structs {
		if !scope(si.pkg.Path) || !acc.mutable[si.tn] {
			continue
		}
		if _, ok := ann.owners[si.tn]; ok {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos: si.pos, Rule: "ownership",
			Message: "mutable struct " + si.tn.Name() + " has no ownership domain; annotate with //nomad:owner core|channel|shared|host (DESIGN.md \"Ownership domains\")",
		})
	}

	seedDomains(cg, ann)

	// (b) field writes must respect the domain write matrix.
	for _, w := range acc.writes {
		if w.node == nil || w.node.inPort || !scope(w.node.pkg.Path) {
			continue
		}
		oi, ok := ann.owners[w.tn]
		if !ok {
			continue
		}
		mask := w.node.mask
		if mask == 0 {
			mask = domHost
		}
		bad := mask &^ writeAllow[oi.domain]
		if bad == 0 {
			continue
		}
		target := w.tn.Name()
		if w.field != "" {
			target += "." + w.field
		}
		diags = append(diags, Diagnostic{
			Pos: mod.Fset.Position(w.pos), Rule: "ownership",
			Message: fmt.Sprintf("%s-domain code writes %s, owned by %s; cross-domain writes must go through a //nomad:port mediation site", domainNames(bad), target, domainName(oi.domain)),
		})
	}

	// (c) core and channel must not call each other's mutating methods
	// except through ports.
	mut := mutatingMethods(cg, ann, acc)
	for _, n := range cg.nodes {
		if n.inPort || !scope(n.pkg.Path) {
			continue
		}
		mask := n.mask
		if mask == 0 {
			mask = domHost
		}
		if mask&(domCore|domChannel) == 0 {
			continue
		}
		for _, e := range n.out {
			if e.kind != edgeStatic && e.kind != edgeIface {
				continue
			}
			t := e.to
			if t.fn == nil || t.recv == nil || t.port || !mut[t.fn] {
				continue
			}
			oi, ok := ann.owners[t.recv]
			if !ok {
				continue
			}
			if (mask&domCore != 0 && oi.domain == domChannel) || (mask&domChannel != 0 && oi.domain == domCore) {
				diags = append(diags, Diagnostic{
					Pos: mod.Fset.Position(e.pos), Rule: "ownership",
					Message: fmt.Sprintf("%s-domain code calls mutating method %s owned by %s; mediate the crossing with a //nomad:port function", domainNames(mask&(domCore|domChannel)), t.name(), domainName(oi.domain)),
				})
			}
		}
	}

	// (d) pooled carriers must not be retained across a domain boundary:
	// one domain recycling an object another still points at is an
	// aliasing bug that corrupts in-flight state silently.
	pooled := ann.pooled
	for _, w := range acc.writes {
		if w.field == "" || w.node == nil {
			continue
		}
		dst, ok := ann.owners[w.tn]
		if !ok {
			continue
		}
		for _, v := range w.vals {
			tv, ok := w.pkg.Info.Types[v]
			if !ok || tv.Type == nil {
				continue
			}
			ptr, ok := tv.Type.Underlying().(*types.Pointer)
			if !ok {
				continue
			}
			ptn := namedStructOf(ptr.Elem())
			if ptn == nil || !pooled[ptn] {
				continue
			}
			po, ok := ann.owners[ptn]
			if !ok || po.domain == dst.domain {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos: mod.Fset.Position(v.Pos()), Rule: "ownership",
				Message: fmt.Sprintf("pooled *%s (owner %s) retained in %s.%s (owner %s); pooled carriers must not be stored across a domain boundary — the owning pool may recycle them", ptn.Name(), domainName(po.domain), w.tn.Name(), w.field, domainName(dst.domain)),
			})
		}
	}

	// Inventory diff: the committed ownership map is the reviewable artifact.
	if cfg.OwnershipInventory != nil {
		want := map[string]bool{}
		for _, l := range cfg.OwnershipInventory {
			l = strings.TrimSpace(l)
			if l != "" && !strings.HasPrefix(l, "#") {
				want[l] = true
			}
		}
		lines, poss := ownershipLines(mod, ann)
		seen := map[string]bool{}
		for i, l := range lines {
			if seen[l] {
				continue
			}
			seen[l] = true
			if !want[l] {
				diags = append(diags, Diagnostic{
					Pos: poss[i], Rule: "ownership",
					Message: fmt.Sprintf("%q is not in the committed ownership inventory; run nomadlint -write-inventory and review the diff", strings.ReplaceAll(l, "\t", " ")),
				})
			}
		}
		stale := make([]string, 0)
		for l := range want {
			if !seen[l] {
				stale = append(stale, strings.ReplaceAll(l, "\t", " "))
			}
		}
		sort.Strings(stale)
		for _, l := range stale {
			diags = append(diags, Diagnostic{
				Rule:    "ownership",
				Message: fmt.Sprintf("ownership inventory lists %q which is no longer annotated; run nomadlint -write-inventory", l),
			})
		}
	}
	return diags
}

// ownershipLines renders the live owner and port annotations as sorted
// inventory lines ("owner<TAB>pkg<TAB>Type<TAB>domain" and
// "port<TAB>pkg<TAB>Func<TAB>reason"), with the position backing each line.
func ownershipLines(mod *Module, ann *annotations) ([]string, []token.Position) {
	type entry struct {
		line string
		pos  token.Position
	}
	var entries []entry
	rel := func(ip string) string {
		if r, ok := strings.CutPrefix(ip, mod.Path+"/"); ok {
			return r
		}
		return ip
	}
	for _, si := range ann.structs {
		oi, ok := ann.owners[si.tn]
		if !ok {
			continue
		}
		entries = append(entries, entry{
			line: "owner\t" + rel(si.pkg.Path) + "\t" + si.tn.Name() + "\t" + domainName(oi.domain),
			pos:  oi.pos,
		})
	}
	for fn, pi := range ann.ports {
		name := fn.Name()
		if tn := recvTypeName(fn); tn != nil {
			name = tn.Name() + "." + name
		}
		pkg := ""
		if fn.Pkg() != nil {
			pkg = rel(fn.Pkg().Path())
		}
		entries = append(entries, entry{
			line: "port\t" + pkg + "\t" + name + "\t" + pi.reason,
			pos:  pi.pos,
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].line < entries[j].line })
	lines := make([]string, len(entries))
	poss := make([]token.Position, len(entries))
	for i, e := range entries {
		lines[i] = e.line
		poss[i] = e.pos
	}
	return lines, poss
}

// OwnershipInventoryLines loads the module's owner and port annotations and
// renders the sorted committed-inventory lines.
func OwnershipInventoryLines(mod *Module) []string {
	lines, _ := ownershipLines(mod, parseAnnotations(mod))
	return lines
}
