package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Domain identifies one shard-ownership domain: the unit of state the
// epoch/barrier parallelism plan (ROADMAP) would hand to one OS
// thread. Mutable simulator state belongs to exactly one domain, and
// the shardown analyzer proves no component writes outside its own.
type Domain string

const (
	// DomainCore is per-core pipeline state (rendered core[i]).
	DomainCore Domain = "core"
	// DomainCache is per-core private-cache state (rendered cache[i]).
	DomainCache Domain = "cache"
	// DomainBank is per-bank directory/L3 state (rendered bank[i]).
	DomainBank Domain = "bank"
	// DomainMesh is the interconnect: the one legal cross-shard
	// channel. Calls into mesh state classify as mesh-mediated.
	DomainMesh Domain = "mesh"
	// DomainSimGlobal is state owned by the System driver itself
	// (clock, pools, sinks): shared services the parallel plan must
	// either replicate per shard or merge at epoch boundaries.
	DomainSimGlobal Domain = "sim-global"
	// DomainReadonly is immutable-after-construction input (config,
	// traces). Any write to it on a visit path is a violation.
	DomainReadonly Domain = "readonly"
	// DomainMessage marks transferable payloads (protocol messages,
	// error reports): ownership moves with the value, enforced
	// dynamically by the msgpool discipline, so the current holder may
	// write freely.
	DomainMessage Domain = "message"
	// DomainNone marks state with no domain of its own: locals,
	// library types (sram arrays, stats counters) that belong to
	// whichever component embeds them.
	DomainNone Domain = ""
)

// Indexed reports whether the domain is per-instance (one shard per
// component index).
func (d Domain) Indexed() bool {
	return d == DomainCore || d == DomainCache || d == DomainBank
}

// Render returns the report spelling: indexed domains carry the
// symbolic instance index.
func (d Domain) Render() string {
	if d.Indexed() {
		return string(d) + "[i]"
	}
	return string(d)
}

// parseDomain maps an annotation spelling to a Domain. Indexed domains
// must be written with their index (core[i]) so the taxonomy stays
// explicit about per-instance sharding.
func parseDomain(s string) (Domain, bool) {
	switch s {
	case "core[i]":
		return DomainCore, true
	case "cache[i]":
		return DomainCache, true
	case "bank[i]":
		return DomainBank, true
	case "mesh":
		return DomainMesh, true
	case "sim-global":
		return DomainSimGlobal, true
	case "readonly":
		return DomainReadonly, true
	case "message":
		return DomainMessage, true
	}
	return DomainNone, false
}

// domainSpellings lists the legal annotation spellings for error text.
const domainSpellings = "core[i], cache[i], bank[i], mesh, sim-global, readonly, message"

// DomainOfPackage infers the domain of types declared in a package
// with no explicit //rowlint:owner annotation, keyed by the final
// import-path element (so testdata fixtures score like the real
// packages, mirroring DeterministicPackages). Packages absent from the
// table declare library types with no domain of their own: their state
// belongs to whichever component embeds it.
var DomainOfPackage = map[string]Domain{
	"core":         DomainCore,
	"cache":        DomainCache,
	"coherence":    DomainBank,
	"interconnect": DomainMesh,
	"sim":          DomainSimGlobal,
	"config":       DomainReadonly,
	"trace":        DomainReadonly,
}

// Annotation markers recognized on declarations.
const (
	ownerMarker = "//rowlint:owner"
	seamMarker  = "//rowlint:seam"
	entryMarker = "//rowlint:entry"
)

// SeamKind is the checkable obligation a //rowlint:seam declares. A
// seam is not trusted prose: the epochsafe analyzer proves the seam's
// body (and, for interface seams, every implementation) honours the
// declared kind, and the shard plan records the verdict.
type SeamKind string

const (
	// SeamSameIndex: the crossing stays on one shard because core[i],
	// cache[i] and bank[i] of the same index share a shard. The body
	// may only write its own instance's state and message payloads.
	SeamSameIndex SeamKind = "same-index"
	// SeamBuffered: the crossing is deferred through the interconnect.
	// The body may only write message payloads and enqueue into mesh
	// state; the write lands on the peer shard at the next epoch.
	SeamBuffered SeamKind = "buffered"
	// SeamReduction: the crossing folds into sim-global accumulators
	// that commute, so per-shard replicas merge at epoch boundaries.
	// The body may only bump counters (++, +=, |=, ^=), grow or shrink
	// a free list it owns (x = append(x, ...), x = x[:n]), set a
	// nil-guarded first-error latch, and write message payloads.
	SeamReduction SeamKind = "reduction"
	// SeamInitOnly: the crossing happens during construction or
	// Restore, never on a visit path. The obligation is reachability:
	// no //rowlint:entry run loop may reach the seam.
	SeamInitOnly SeamKind = "init-only"
	// SeamKindInvalid marks a seam whose directive did not parse; the
	// directive parser reports it and the shard plan counts it
	// unproven.
	SeamKindInvalid SeamKind = ""
)

// parseSeamKind maps a directive's kind verb to a SeamKind.
func parseSeamKind(s string) (SeamKind, bool) {
	switch SeamKind(s) {
	case SeamSameIndex, SeamBuffered, SeamReduction, SeamInitOnly:
		return SeamKind(s), true
	}
	return SeamKindInvalid, false
}

// seamKindSpellings lists the legal seam kinds for error text.
const seamKindSpellings = "same-index, buffered, reduction, init-only"

// seamDecl is one parsed //rowlint:seam declaration: the checkable
// kind plus the recorded prose reason.
type seamDecl struct {
	Kind   SeamKind
	Reason string
}

// parseSeamDecl splits a seam directive's argument into kind and
// reason. Both are mandatory; a bad kind yields SeamKindInvalid with
// the full text kept as the reason so reports stay informative.
func parseSeamDecl(arg string) (seamDecl, bool) {
	kindWord, reason, _ := strings.Cut(arg, " ")
	kind, ok := parseSeamKind(kindWord)
	reason = strings.TrimSpace(reason)
	if !ok || reason == "" {
		return seamDecl{Kind: SeamKindInvalid, Reason: strings.TrimSpace(arg)}, false
	}
	return seamDecl{Kind: kind, Reason: reason}, true
}

// ownership is the per-package shard-ownership annotation table,
// built lazily and memoized on the Package.
type ownership struct {
	// typeDomain holds explicit //rowlint:owner annotations on type
	// declarations.
	typeDomain map[*types.TypeName]Domain
	// fieldDomain holds explicit //rowlint:owner annotations on
	// struct fields (overriding the field type's own domain).
	fieldDomain map[*types.Var]Domain
	// seams maps functions and interface methods annotated
	// //rowlint:seam <kind> <reason> — declared legal domain crossings
	// — to their parsed declaration.
	seams map[types.Object]seamDecl
	// entries lists //rowlint:entry functions: the roots of the
	// whole-program ownership walk (the run loop's visit paths).
	entries []*ast.FuncDecl
}

// Ownership returns the package's annotation table, building it on
// first use.
func (p *Package) Ownership() *ownership {
	if p.own != nil {
		return p.own
	}
	o := &ownership{
		typeDomain:  make(map[*types.TypeName]Domain),
		fieldDomain: make(map[*types.Var]Domain),
		seams:       make(map[types.Object]seamDecl),
	}
	p.own = o
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if arg, ok := markerArg(d.Doc, seamMarker); ok {
					if obj := p.defObj(d.Name); obj != nil {
						sd, _ := parseSeamDecl(arg)
						o.seams[obj] = sd
					}
				}
				if _, ok := markerArg(d.Doc, entryMarker); ok {
					o.entries = append(o.entries, d)
				}
			case *ast.GenDecl:
				o.collectGenDecl(p, d)
			}
		}
	}
	return o
}

// collectGenDecl gathers owner/seam annotations from a type or var
// declaration group. An annotation on the group's doc applies to every
// spec in it (the common single-type case).
func (o *ownership) collectGenDecl(p *Package, d *ast.GenDecl) {
	groupDomain, groupOK := domainArg(d.Doc)
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		dom, ok := domainArg(ts.Doc)
		if !ok {
			dom, ok = groupDomain, groupOK
		}
		if ok {
			if tn, _ := p.defObj(ts.Name).(*types.TypeName); tn != nil {
				o.typeDomain[tn] = dom
			}
		}
		switch t := ts.Type.(type) {
		case *ast.StructType:
			for _, f := range t.Fields.List {
				fd, ok := domainArg(f.Doc)
				if !ok {
					fd, ok = domainArg(f.Comment)
				}
				if !ok {
					continue
				}
				for _, name := range f.Names {
					if v, _ := p.defObj(name).(*types.Var); v != nil {
						o.fieldDomain[v] = fd
					}
				}
			}
		case *ast.InterfaceType:
			for _, m := range t.Methods.List {
				arg, ok := markerArg(m.Doc, seamMarker)
				if !ok {
					arg, ok = markerArg(m.Comment, seamMarker)
				}
				if !ok {
					continue
				}
				sd, _ := parseSeamDecl(arg)
				for _, name := range m.Names {
					if fn := p.defObj(name); fn != nil {
						o.seams[fn] = sd
					}
				}
			}
		}
	}
}

func (p *Package) defObj(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	return p.Info.Defs[id]
}

// markerArg extracts the argument text of the given marker from a
// comment group ("", false when absent).
func markerArg(cg *ast.CommentGroup, marker string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == marker {
			return "", true
		}
		if rest, ok := strings.CutPrefix(text, marker+" "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// domainArg extracts and parses an owner annotation from a comment
// group (DomainNone, false when absent or malformed; malformed
// spellings are reported by parseDirectives).
func domainArg(cg *ast.CommentGroup) (Domain, bool) {
	arg, ok := markerArg(cg, ownerMarker)
	if !ok {
		return DomainNone, false
	}
	d, ok := parseDomain(arg)
	return d, ok
}

// packageBase returns the final element of an import path.
func packageBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// resolver answers cross-package ownership questions through the
// loader's memoized package set. All packages a target package depends
// on are loaded (type-checking requires it), so annotation tables for
// any named type or function the target references are available.
type resolver struct {
	pkg *Package
}

// pkgFor returns the loaded Package declaring obj (nil for stdlib and
// unloaded packages).
func (r resolver) pkgFor(obj types.Object) *Package {
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	if r.pkg.loader == nil {
		if obj.Pkg() == r.pkg.Types {
			return r.pkg
		}
		return nil
	}
	return r.pkg.loader.pkgs[obj.Pkg().Path()]
}

// typeDomain resolves the ownership domain of a type: pointers are
// transparent, explicit annotations win, unannotated named types fall
// back to their package's inferred domain, and everything else
// (slices, maps, basics, unnamed structs, type parameters) has no
// domain of its own.
func (r resolver) typeDomain(t types.Type) Domain {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return DomainNone
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return DomainNone // error and other universe types
	}
	if dp := r.pkgFor(tn); dp != nil {
		if d, ok := dp.Ownership().typeDomain[tn]; ok {
			return d
		}
	}
	return DomainOfPackage[packageBase(tn.Pkg().Path())]
}

// fieldDomain returns an explicit owner annotation on a struct field
// (DomainNone when unannotated).
func (r resolver) fieldDomain(f *types.Var) Domain {
	if dp := r.pkgFor(f); dp != nil {
		if d, ok := dp.Ownership().fieldDomain[f]; ok {
			return d
		}
	}
	return DomainNone
}

// seamFor returns the //rowlint:seam declaration on a function or
// interface method (zero, false when not a seam).
func (r resolver) seamFor(fn types.Object) (seamDecl, bool) {
	if dp := r.pkgFor(fn); dp != nil {
		sd, ok := dp.Ownership().seams[fn]
		return sd, ok
	}
	return seamDecl{}, false
}

// componentPointer reports whether t is a pointer to a named type
// owned by a per-instance component domain — the shape component
// collections ([]*core.Core, []*cache.Private, []*coherence.Directory)
// hold. Indexing such a collection reaches a data-dependent instance,
// which is what makes an access cross-instance.
func (r resolver) componentPointer(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return r.typeDomain(p.Elem()).Indexed()
}

// place describes the state an expression denotes.
type place struct {
	domain Domain
	// crossInstance marks a path that indexes into a collection of
	// component pointers (peer access: the instance reached depends on
	// the index value, not on the visiting component's identity) or
	// reaches package-level mutable state (shared by every instance).
	crossInstance bool
	// pkgLevel marks package-level variables: state shared by every
	// component instance in the process.
	pkgLevel bool
}

// exprPlace resolves the ownership domain of the state an expression
// denotes, walking selector/index/deref paths from their root. ctx is
// the domain the enclosing code executes in; receiver-rooted paths
// resolve to it naturally (the receiver's type carries the domain).
func exprPlace(pkg *Package, ctx Domain, e ast.Expr) place {
	r := resolver{pkg: pkg}
	return r.exprPlace(pkg, ctx, e)
}

func (r resolver) exprPlace(pkg *Package, ctx Domain, e ast.Expr) place {
	switch e := e.(type) {
	case *ast.Ident:
		obj := pkg.ObjectOf(e)
		v, ok := obj.(*types.Var)
		if !ok {
			return place{}
		}
		pl := place{domain: r.typeDomain(v.Type())}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			// Package-level variable: shared mutable state.
			pl.pkgLevel, pl.crossInstance = true, true
			if pl.domain == DomainNone {
				pl.domain = DomainOfPackage[packageBase(v.Pkg().Path())]
			}
		}
		return pl
	case *ast.SelectorExpr:
		if pkg.Info != nil {
			if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				f, _ := sel.Obj().(*types.Var)
				if f != nil {
					if d := r.fieldDomain(f); d != DomainNone {
						return place{domain: d}
					}
				}
				base := r.exprPlace(pkg, ctx, e.X)
				if f != nil {
					if d := r.typeDomain(f.Type()); d != DomainNone {
						return place{domain: d, crossInstance: base.crossInstance}
					}
				}
				return base
			}
		}
		// Qualified identifier (pkgname.Var) or method value.
		return r.exprPlace(pkg, ctx, e.Sel)
	case *ast.IndexExpr:
		base := r.exprPlace(pkg, ctx, e.X)
		elem := indexedElem(pkg.TypeOf(e.X))
		if elem == nil {
			return base
		}
		if d := r.typeDomain(elem); d != DomainNone {
			return place{
				domain:        d,
				crossInstance: base.crossInstance || r.componentPointer(elem),
			}
		}
		return base
	case *ast.StarExpr:
		return r.exprPlace(pkg, ctx, e.X)
	case *ast.ParenExpr:
		return r.exprPlace(pkg, ctx, e.X)
	case *ast.CallExpr:
		// The result of a call: an accessor handing out a pointer into
		// owned state (d.entry(line)) carries its domain in the result
		// type; fresh values carry none.
		if t := pkg.TypeOf(e); t != nil {
			if _, ok := t.(*types.Pointer); ok {
				return place{domain: r.typeDomain(t)}
			}
		}
		return place{}
	case *ast.TypeAssertExpr:
		return r.exprPlace(pkg, ctx, e.X)
	}
	return place{}
}

// containerPlace resolves the state a write to lhs mutates: the
// container holding the written slot, not the value being traversed
// to. Writing s[i] mutates s's backing store; writing x.f mutates the
// struct x denotes; rebinding a plain local mutates nothing shared.
func containerPlace(pkg *Package, ctx Domain, lhs ast.Expr) place {
	r := resolver{pkg: pkg}
	switch lhs := lhs.(type) {
	case *ast.Ident:
		obj := pkg.ObjectOf(lhs)
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			pl := place{domain: r.typeDomain(v.Type()), pkgLevel: true, crossInstance: true}
			if pl.domain == DomainNone {
				pl.domain = DomainOfPackage[packageBase(v.Pkg().Path())]
			}
			return pl
		}
		return place{} // rebinding a local or blank
	case *ast.SelectorExpr:
		if pkg.Info != nil {
			if sel, ok := pkg.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
				if f, _ := sel.Obj().(*types.Var); f != nil {
					if d := r.fieldDomain(f); d != DomainNone {
						return place{domain: d}
					}
				}
				return r.exprPlace(pkg, ctx, lhs.X)
			}
		}
		return containerPlace(pkg, ctx, lhs.Sel)
	case *ast.IndexExpr:
		// The slot lives in the indexed container's backing store.
		return r.exprPlace(pkg, ctx, lhs.X)
	case *ast.StarExpr:
		return r.exprPlace(pkg, ctx, lhs.X)
	case *ast.ParenExpr:
		return containerPlace(pkg, ctx, lhs.X)
	}
	return place{}
}

// indexedElem returns the element type an index expression reaches
// (nil for strings and unindexable types).
func indexedElem(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	case *types.Pointer:
		if a, ok := u.Elem().Underlying().(*types.Array); ok {
			return a.Elem()
		}
	}
	return nil
}

// receiverDomain returns the domain a method executes in: the domain
// of its receiver's type (DomainNone for free functions and methods on
// library types).
func receiverDomain(pkg *Package, fd *ast.FuncDecl) Domain {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return DomainNone
	}
	t := pkg.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return DomainNone
	}
	return resolver{pkg: pkg}.typeDomain(t)
}
