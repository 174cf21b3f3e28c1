package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// EpochSafe proves the parallel execution plan the ROADMAP's
// epoch/barrier scheme needs, on top of the shardown domain model.
// shardown proves every component only touches its own shard;
// epochsafe proves the *declared crossings* and the *schedule* are
// safe:
//
//   - Seam-effect verification: every //rowlint:seam carries a
//     checkable kind (same-index, buffered, reduction, init-only) and
//     the analyzer proves the seam's body — and, for seams declared on
//     interface methods, every implementation in the module — honours
//     it. A same-index seam may only write its own same-shard
//     instance and message payloads; a buffered seam may only write
//     message payloads and enqueue into mesh state; a reduction seam
//     may only bump commutative accumulators on sim-global state; an
//     init-only seam must be unreachable from the run loops.
//   - Init-only immutability: no function reachable from a
//     //rowlint:entry run loop may store to readonly-domain state
//     (config, traces) or to package-level variables of the
//     deterministic packages. Construction and Restore paths are
//     exempt by reachability, not by annotation.
//   - Determinism hazards inside shards: go statements, channel
//     operations, select, and calls into sync/sync-atomic are banned
//     in methods (and struct fields) of the indexed shard domains
//     core[i]/cache[i]/bank[i] — inside an epoch a shard must be
//     single-threaded, or the parallel schedule becomes
//     timing-dependent.
//
// Reachability follows direct calls plus interface fan-out
// (implementations across the whole module); function values stored
// before the run (checkpoint callbacks) are out of scope and must be
// covered by their own seam declarations.
//
// rowlint -shard-plan assembles these verdicts, the ownership report's
// domain map, and the epoch bound derived from the interconnect's hop
// costs into SHARDPLAN.json (see BuildShardPlan).
var EpochSafe = &Analyzer{
	Name: "epochsafe",
	Doc:  "proves seam kinds, init-only immutability and shard single-threadedness for the epoch-parallel plan",
	Run:  runEpochSafe,
}

func runEpochSafe(pass *Pass) {
	for _, f := range epochFindings(pass.Pkg) {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// epochCategory buckets epochsafe findings for the shard plan's
// check counters.
type epochCategory uint8

const (
	catSeam     epochCategory = iota // a seam body breaks its declared kind
	catInitOnly                      // a post-init write to frozen state
	catHazard                        // a sync/channel/goroutine hazard in a shard
)

// epochFinding is one structured epochsafe result: the analyzer
// reports it as a Finding, and the shard-plan builder attributes
// catSeam findings to their seam for per-seam verdicts.
type epochFinding struct {
	pos  token.Pos
	msg  string
	cat  epochCategory
	seam *types.Func // the declared seam a catSeam finding counts against
}

// epochFindings computes (and memoizes) the package's epochsafe
// findings. The memo is keyed by the loader's package-set size:
// loading more packages can add entries (changing reachability) or
// interface implementations, so the result is recomputed when the set
// grows.
func epochFindings(pkg *Package) []epochFinding {
	l := pkg.loader
	if l == nil {
		return nil
	}
	if pkg.epoch != nil && pkg.epochAt == len(l.pkgs) {
		return pkg.epoch
	}
	c := &epochChecker{
		pkg:   pkg,
		r:     resolver{pkg: pkg},
		reach: l.reachableFromEntries(),
	}
	c.checkSeams()
	c.checkInitOnly()
	c.checkHazards()
	sort.Slice(c.out, func(i, j int) bool { return c.out[i].pos < c.out[j].pos })
	pkg.epoch, pkg.epochAt = c.out, len(l.pkgs)
	if pkg.epoch == nil {
		pkg.epoch = []epochFinding{} // distinguish "computed, clean" from "not computed"
	}
	return c.out
}

type epochChecker struct {
	pkg   *Package
	r     resolver
	reach map[*types.Func]bool
	out   []epochFinding
}

func (c *epochChecker) report(pos token.Pos, cat epochCategory, seam *types.Func, format string, args ...any) {
	c.out = append(c.out, epochFinding{
		pos:  pos,
		msg:  fmt.Sprintf(format, args...),
		cat:  cat,
		seam: seam,
	})
}

// checkSeams verifies every seam whose obligation lands in this
// package: seams declared here on concrete functions, plus local
// implementations of seam-annotated interface methods declared
// anywhere in the module (the caller promises the kind; every
// implementation must honour it).
func (c *epochChecker) checkSeams() {
	for _, fn := range sortedSeamFuncs(c.pkg.Ownership().seams) {
		sd := c.pkg.Ownership().seams[fn]
		if sd.Kind == SeamKindInvalid {
			continue // the directive parser reports the malformed kind
		}
		if isInterfaceMethod(fn) {
			// The declaration site's only local obligation is init-only
			// reachability; bodies are checked at each implementation.
			if sd.Kind == SeamInitOnly && c.reach[fn] {
				c.report(fn.Pos(), catSeam, fn,
					"init-only seam %s is reachable from the //rowlint:entry run loops; an init-only crossing must stay confined to construction and restore paths",
					renderFunc(fn))
			}
			continue
		}
		c.checkSeamFunc(fn, fn, sd, renderFunc(fn))
	}
	for _, is := range moduleInterfaceSeams(c.pkg.loader) {
		if is.decl.Kind == SeamKindInvalid {
			continue
		}
		for _, impl := range c.pkg.loader.implementations(is.fn) {
			if impl.Pkg() != c.pkg.Types {
				continue
			}
			if _, own := c.pkg.Ownership().seams[impl]; own {
				continue // a direct seam annotation on the method wins
			}
			c.checkSeamFunc(impl, is.fn, is.decl,
				renderFunc(is.fn)+" (implemented by "+renderFunc(impl)+")")
		}
	}
}

// checkSeamFunc proves one concrete function against a seam
// declaration. fn is the body being checked; seam is the declared seam
// the verdict is attributed to (the interface method for
// implementations).
func (c *epochChecker) checkSeamFunc(fn, seam *types.Func, sd seamDecl, display string) {
	fd := c.pkg.FuncDecls()[fn]
	if fd == nil {
		return
	}
	if sd.Kind == SeamInitOnly {
		if c.reach[fn] {
			c.report(fd.Name.Pos(), catSeam, seam,
				"init-only seam %s is reachable from the //rowlint:entry run loops; an init-only crossing must stay confined to construction and restore paths",
				display)
		}
		return // the body is construction code; timing is the whole obligation
	}
	if fd.Body == nil {
		return
	}
	ctx := receiverDomain(c.pkg, fd)
	latches := latchStmts(fd.Body)
	walkAccesses(c.pkg, ctx, fd.Body, func(acc access) {
		switch sd.Kind {
		case SeamSameIndex:
			c.checkSameIndex(ctx, acc, seam, display)
		case SeamBuffered:
			c.checkBuffered(ctx, acc, seam, display)
		case SeamReduction:
			c.checkReduction(ctx, acc, seam, display, latches)
		}
	})
}

// checkSameIndex: the crossing stays on one shard because caller and
// callee instances share an index, so the body may behave like normal
// component code — writes confined to its own instance (and message
// payloads), no peer instances, no globals, and every call classified.
func (c *epochChecker) checkSameIndex(ctx Domain, acc access, seam *types.Func, display string) {
	switch acc.kind {
	case accWrite:
		pl := acc.target
		switch {
		case pl.pkgLevel:
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: same-index seam %s writes package-level state %s; a same-index seam may only write its own %s instance and message payloads",
				display, acc.desc, ctx.Render())
		case pl.domain == DomainNone, pl.domain == DomainMessage:
		case pl.domain == ctx && !pl.crossInstance:
		case pl.domain == ctx:
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: same-index seam %s writes peer-instance state %s; the crossing stays on one shard only when it touches the caller's own index",
				display, acc.desc)
		default:
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: same-index seam %s writes %s state %s; a same-index seam may only write its own %s instance and message payloads",
				display, pl.domain.Render(), acc.desc, ctx.Render())
		}
	case accAlias:
		pl := acc.target
		if (pl.domain != DomainNone && pl.domain != DomainMessage && pl.domain != ctx && pl.domain != DomainReadonly) ||
			(pl.domain == ctx && pl.crossInstance) {
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: same-index seam %s leaks the address of %s state %s; writes through it would escape the shard",
				display, pl.domain.Render(), acc.desc)
		}
	case accCall:
		if classifyCall(c.pkg, ctx, acc).name == classUnclassified {
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: same-index seam %s makes an unclassified cross-domain call to %s; classify the edge before trusting the seam",
				display, acc.desc)
		}
	}
}

// checkBuffered: the crossing defers through the interconnect, so the
// body may only build message payloads and enqueue into mesh state.
func (c *epochChecker) checkBuffered(ctx Domain, acc access, seam *types.Func, display string) {
	switch acc.kind {
	case accWrite:
		pl := acc.target
		switch {
		case pl.pkgLevel:
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: buffered seam %s writes package-level state %s; a buffered seam may only write message payloads and enqueue into mesh state",
				display, acc.desc)
		case pl.domain == DomainNone, pl.domain == DomainMessage, pl.domain == DomainMesh:
		default:
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: buffered seam %s writes %s state %s; a buffered seam may only write message payloads and enqueue into mesh state",
				display, pl.domain.Render(), acc.desc)
		}
	case accAlias:
		pl := acc.target
		switch pl.domain {
		case DomainNone, DomainMessage, DomainMesh, DomainReadonly:
		default:
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: buffered seam %s leaks the address of %s state %s out of the message path",
				display, pl.domain.Render(), acc.desc)
		}
	case accCall:
		if !c.seamCallAllowed(ctx, acc, SeamBuffered) {
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: buffered seam %s calls %s, which is neither mesh/message handling, provably read-only, nor a buffered seam",
				display, acc.desc)
		}
	}
}

// checkReduction: the crossing folds into sim-global accumulators
// that commute across shards, so per-shard replicas merge at epoch
// boundaries. Stores must be commutative: ++/--, op-assign with a
// commutative operator, growing/shrinking an owned free list, or a
// nil-guarded first-error latch.
func (c *epochChecker) checkReduction(ctx Domain, acc access, seam *types.Func, display string, latches map[ast.Node]bool) {
	switch acc.kind {
	case accWrite:
		pl := acc.target
		switch {
		case pl.pkgLevel:
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: reduction seam %s writes package-level state %s; accumulators must live on an owned sim-global receiver so shards can replicate them",
				display, acc.desc)
		case pl.domain == DomainNone, pl.domain == DomainMessage:
		case pl.domain == DomainSimGlobal:
			if !commutativeWrite(acc, latches) {
				c.report(acc.pos, catSeam, seam,
					"seam kind mismatch: reduction seam %s stores to sim-global state %s non-commutatively; a reduction seam may only bump commutative accumulators (++, +=, |=), append to or truncate its own free list, or set a nil-guarded latch",
					display, acc.desc)
			}
		default:
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: reduction seam %s writes %s state %s; only sim-global accumulators and message payloads may be written",
				display, pl.domain.Render(), acc.desc)
		}
	case accAlias:
		pl := acc.target
		switch pl.domain {
		case DomainNone, DomainMessage, DomainReadonly:
		default:
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: reduction seam %s leaks the address of %s state %s; an aliased accumulator can no longer be merged",
				display, pl.domain.Render(), acc.desc)
		}
	case accCall:
		if !c.seamCallAllowed(ctx, acc, SeamReduction) {
			c.report(acc.pos, catSeam, seam,
				"seam kind mismatch: reduction seam %s calls %s, which is neither provably read-only, message handling, nor a reduction seam",
				display, acc.desc)
		}
	}
}

// seamCallAllowed decides whether a buffered/reduction seam body may
// make this call: seams of the same kind compose, mesh/message/
// read-only edges are the legal plumbing, and helpers must be provably
// mutation-free (stdlib callees are trusted not to reach simulator
// state).
func (c *epochChecker) seamCallAllowed(ctx Domain, acc access, kind SeamKind) bool {
	if sd, ok := c.r.seamFor(acc.callee); ok && sd.Kind == kind {
		return true
	}
	cc := classifyCall(c.pkg, ctx, acc)
	switch cc.name {
	case classMesh, classMessage, classReadOnly:
		return true
	case classInternal:
		if acc.callee.Pkg() == nil || c.r.pkgFor(acc.callee) == nil {
			return true // builtins and stdlib
		}
		return methodReadOnly(c.r, acc.callee)
	}
	return false
}

// checkInitOnly flags post-init writes: stores to readonly-domain
// state or to package-level variables of the deterministic packages
// from any function reachable from the //rowlint:entry run loops.
// Construction and Restore are exempt because the walk never reaches
// them, not because they are annotated.
func (c *epochChecker) checkInitOnly() {
	for _, f := range c.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := c.pkg.defObj(fd.Name).(*types.Func)
			if fn == nil || !c.reach[fn] {
				continue
			}
			ctx := receiverDomain(c.pkg, fd)
			walkAccesses(c.pkg, ctx, fd.Body, func(acc access) {
				if acc.kind != accWrite {
					return
				}
				pl := acc.target
				switch {
				case pl.domain == DomainReadonly && !pl.pkgLevel:
					c.report(acc.pos, catInitOnly, nil,
						"post-init write to readonly state %s: the function is reachable from the //rowlint:entry run loops, and config/trace state is immutable once the run starts; move the write to construction or justify with //rowlint:ignore epochsafe <reason>",
						acc.desc)
				case pl.pkgLevel && deterministicPkgLevelWrite(c.pkg, acc.lhs):
					c.report(acc.pos, catInitOnly, nil,
						"post-init write to package-level state %s: reachable from the //rowlint:entry run loops; package-level state in a deterministic package must be frozen before the run starts",
						acc.desc)
				}
			})
		}
	}
}

// checkHazards bans concurrency constructs inside the indexed shard
// domains: a shard executes single-threaded within an epoch, and any
// sync primitive, channel operation or goroutine would make the
// parallel schedule timing-dependent.
func (c *epochChecker) checkHazards() {
	for _, f := range c.pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil || !receiverDomain(c.pkg, d).Indexed() {
					continue
				}
				c.hazardScan(receiverDomain(c.pkg, d), d.Body)
			case *ast.GenDecl:
				c.hazardFields(d)
			}
		}
	}
}

func (c *epochChecker) hazardScan(ctx Domain, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			c.hazard(n.Pos(), ctx, "go statement")
		case *ast.SendStmt:
			c.hazard(n.Pos(), ctx, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.hazard(n.Pos(), ctx, "channel receive")
			}
		case *ast.SelectStmt:
			c.hazard(n.Pos(), ctx, "select statement")
		case *ast.RangeStmt:
			if t := c.pkg.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					c.hazard(n.Pos(), ctx, "range over a channel")
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := c.pkg.ObjectOf(id).(*types.Builtin); isBuiltin {
					c.hazard(n.Pos(), ctx, "close of a channel")
				}
			}
			if fn := resolveCallee(c.pkg, n); fn != nil && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "sync", "sync/atomic":
					c.hazard(n.Pos(), ctx, "call to "+fn.Pkg().Name()+"."+syncCallName(fn))
				}
			}
		}
		return true
	})
}

// hazardFields flags sync- and channel-typed fields declared on types
// owned by an indexed shard domain: the primitive embedded in the
// state is the hazard, whether or not this package touches it.
func (c *epochChecker) hazardFields(d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		tn, _ := c.pkg.defObj(ts.Name).(*types.TypeName)
		if tn == nil || !c.r.typeDomain(tn.Type()).Indexed() {
			continue
		}
		ctx := c.r.typeDomain(tn.Type())
		for _, f := range st.Fields.List {
			t := c.pkg.TypeOf(f.Type)
			if t == nil {
				continue
			}
			if desc, bad := syncTypeDesc(t); bad {
				c.hazard(f.Pos(), ctx, desc+" field on a shard-owned type")
			}
		}
	}
}

func (c *epochChecker) hazard(pos token.Pos, ctx Domain, what string) {
	c.report(pos, catHazard, nil,
		"determinism hazard in %s shard state: %s; a shard runs single-threaded within an epoch, so sync primitives, channels and goroutines would make the parallel schedule timing-dependent",
		ctx.Render(), what)
}

// syncCallName renders a sync/sync-atomic callee for the hazard
// message (Mutex.Lock, AddUint64).
func syncCallName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		for {
			p, ok := t.(*types.Pointer)
			if !ok {
				break
			}
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// syncTypeDesc reports whether t is (or points to) a sync-package type
// or a channel.
func syncTypeDesc(t types.Type) (string, bool) {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return "channel-typed", true
	}
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync", "sync/atomic":
				return pkg.Name() + "." + named.Obj().Name() + "-typed", true
			}
		}
	}
	return "", false
}

// deterministicPkgLevelWrite reports whether the written package-level
// variable lives in one of the deterministic packages (the only ones
// whose globals the plan must freeze; harness/reporting packages keep
// their own discipline).
func deterministicPkgLevelWrite(pkg *Package, lhs ast.Expr) bool {
	v := pkgLevelVar(pkg, lhs)
	if v == nil || v.Pkg() == nil {
		return false
	}
	return DeterministicPackages[packageBase(v.Pkg().Path())]
}

// pkgLevelVar resolves the package-level variable a write's lvalue
// roots in (nil when the root is a local or unresolvable).
func pkgLevelVar(pkg *Package, lhs ast.Expr) *types.Var {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if v, ok := pkg.ObjectOf(lhs).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v
		}
	case *ast.SelectorExpr:
		if v := pkgLevelVar(pkg, lhs.Sel); v != nil {
			return v
		}
		return pkgLevelVar(pkg, lhs.X)
	case *ast.IndexExpr:
		return pkgLevelVar(pkg, lhs.X)
	case *ast.StarExpr:
		return pkgLevelVar(pkg, lhs.X)
	case *ast.ParenExpr:
		return pkgLevelVar(pkg, lhs.X)
	}
	return nil
}

// commutativeWrite reports whether a store to an accumulator merges
// commutatively across shards: increment/decrement, a commutative
// op-assign, growing (x = append(x, ...)) or shrinking (x = x[:n]) the
// container it owns, or a latch assignment proven nil-guarded by
// latchStmts.
func commutativeWrite(acc access, latches map[ast.Node]bool) bool {
	switch st := acc.stmt.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			return true
		case token.ASSIGN:
			if latches[st] {
				return true
			}
			rhs := rhsFor(st, acc.lhs)
			if rhs == nil {
				return false
			}
			l := types.ExprString(acc.lhs)
			switch r := rhs.(type) {
			case *ast.CallExpr:
				if id, ok := r.Fun.(*ast.Ident); ok && id.Name == "append" && len(r.Args) > 0 {
					return types.ExprString(r.Args[0]) == l
				}
			case *ast.SliceExpr:
				return types.ExprString(r.X) == l
			}
		}
	}
	return false
}

// rhsFor returns the right-hand side assigned to lhs in a one-to-one
// assignment (nil for multi-value assignments, where the shape cannot
// be proven).
func rhsFor(st *ast.AssignStmt, lhs ast.Expr) ast.Expr {
	if len(st.Lhs) != len(st.Rhs) {
		return nil
	}
	for i, l := range st.Lhs {
		if l == lhs {
			return st.Rhs[i]
		}
	}
	return nil
}

// latchStmts collects the plain assignments of the first-error-latch
// shape: `if x == nil { x = e }`. Under per-shard replication the
// latch keeps the first error each shard observes, and the epoch merge
// picks a deterministic winner — the one commutative use of a plain
// store.
func latchStmts(body ast.Node) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		var guarded string
		switch {
		case isNilIdent(cond.Y):
			guarded = types.ExprString(cond.X)
		case isNilIdent(cond.X):
			guarded = types.ExprString(cond.Y)
		default:
			return true
		}
		ast.Inspect(ifs.Body, func(m ast.Node) bool {
			if as, ok := m.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				for _, lhs := range as.Lhs {
					if types.ExprString(lhs) == guarded {
						out[as] = true
					}
				}
			}
			return true
		})
		return true
	})
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// ifaceSeam is one seam declared on an interface method, with its
// parsed declaration.
type ifaceSeam struct {
	fn   *types.Func
	decl seamDecl
}

// moduleInterfaceSeams lists every interface-method seam declared in
// the loaded module, sorted for deterministic checking order.
func moduleInterfaceSeams(l *Loader) []ifaceSeam {
	var out []ifaceSeam
	var paths []string
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		p := l.pkgs[path]
		for _, fn := range sortedSeamFuncs(p.Ownership().seams) {
			if isInterfaceMethod(fn) {
				out = append(out, ifaceSeam{fn: fn, decl: p.Ownership().seams[fn]})
			}
		}
	}
	return out
}

// sortedSeamFuncs returns the seam-annotated functions of one package
// in declaration-position order.
func sortedSeamFuncs(seams map[types.Object]seamDecl) []*types.Func {
	var out []*types.Func
	for obj := range seams {
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// reachableFromEntries computes the set of module functions reachable
// from every //rowlint:entry root across the loaded packages,
// following direct calls and fanning interface calls out to all
// implementations. Memoized per package-set size: loading another
// package can add entries or implementations.
func (l *Loader) reachableFromEntries() map[*types.Func]bool {
	if l.reachMemo != nil && l.reachMemoPkgs == len(l.pkgs) {
		return l.reachMemo
	}
	reach := make(map[*types.Func]bool)
	var queue []*types.Func
	add := func(fn *types.Func) {
		if fn == nil || reach[fn] {
			return
		}
		reach[fn] = true
		queue = append(queue, fn)
	}
	var paths []string
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		p := l.pkgs[path]
		for _, fd := range p.Ownership().entries {
			if fn, ok := p.defObj(fd.Name).(*types.Func); ok {
				add(fn)
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if fn.Pkg() == nil {
			continue
		}
		dp := l.pkgs[fn.Pkg().Path()]
		if dp == nil {
			continue // stdlib: trusted not to call back into the module
		}
		fd := dp.FuncDecls()[fn]
		if fd == nil || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := resolveCallee(dp, call)
			if callee == nil {
				return true
			}
			if isInterfaceMethod(callee) {
				add(callee)
				for _, impl := range l.implementations(callee) {
					add(impl)
				}
				return true
			}
			add(callee)
			return true
		})
	}
	l.reachMemo, l.reachMemoPkgs = reach, len(l.pkgs)
	return reach
}
