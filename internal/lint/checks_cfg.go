package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// The CFG-backed checks: hotalloc, atomicmix, goroutineleak, and
// lockguard. Unlike the per-node walkers in checks.go these reason
// about paths — what must have happened before a statement executes —
// using the intraprocedural graphs built in cfg.go.

// ---------------------------------------------------------------------------
// Shared helpers

// HotpathDirective marks a function as hot-path scope for hotalloc.
const HotpathDirective = "//lint:hotpath"

// funcKey names a declaration the way the hot-scope table does:
// "Recv.Name" for methods (pointer receivers unwrapped), "Name" for
// plain functions.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	if id, ok := ast.Unparen(t).(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// hasHotpathDirective reports whether the declaration's doc comment
// carries //lint:hotpath.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == HotpathDirective {
			return true
		}
	}
	return false
}

// rootObject resolves the base identifier of a selector/index chain
// (b.recs[i] -> b, e.parts[i].inbox -> e) to its object, or nil when
// the chain is rooted in something other than a plain identifier.
func rootObject(pkg *Package, e ast.Expr) types.Object {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[t]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[t]
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// fieldObject resolves sel to the struct field it selects, or nil.
func fieldObject(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// ---------------------------------------------------------------------------
// hotalloc

// desHotFuncs is the built-in hot-path scope: the per-event functions
// of internal/des — queue operations, sequential dispatch, and the
// Context calls handlers make — whose zero-allocation discipline the
// AllocsPerRun tests measure dynamically and this check enforces
// statically, on every path. Functions elsewhere opt in with a
// //lint:hotpath doc directive.
var desHotFuncs = map[string]bool{
	"eventBefore":      true,
	"eventQueue.len":   true,
	"eventQueue.reset": true,
	"eventQueue.peek":  true,
	"eventQueue.push":  true,
	"eventQueue.pop":   true,

	"Engine.Run":        true,
	"Engine.Step":       true,
	"Engine.dispatch":   true,
	"Engine.schedule":   true,
	"Engine.ScheduleAt": true,
	"Engine.link":       true,

	"Context.Now":          true,
	"Context.Self":         true,
	"Context.ScheduleSelf": true,
	"Context.Send":         true,
	"Context.LinkLatency":  true,
}

// desHotScope is where the built-in table applies.
var desHotScope = []string{"internal/des"}

type hotallocCheck struct{}

func (*hotallocCheck) Name() string { return "hotalloc" }
func (*hotallocCheck) Doc() string {
	return "hot-path functions (internal/des queue/dispatch/context plus //lint:hotpath) must not contain heap-allocating constructs"
}

func (c *hotallocCheck) Run(pkg *Package, report ReportFunc) {
	inDes := pathScopedTo(pkg, desHotScope)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !(inDes && desHotFuncs[funcKey(fd)]) && !hasHotpathDirective(fd) {
				continue
			}
			w := &hotWalker{pkg: pkg, report: report, fd: fd}
			w.run()
		}
	}
}

type hotWalker struct {
	pkg    *Package
	report ReportFunc
	fd     *ast.FuncDecl
	// capOK holds locals with capacity evidence: defined from a
	// make(..., cap) with explicit capacity or from a reslice of an
	// existing buffer, so appending to them amortizes.
	capOK map[types.Object]bool
	// litExempt marks function literals that do not escape by
	// construction: immediately called, deferred (open-coded since
	// go1.14), or the body of a go statement (goroutinediscipline
	// already polices those).
	litExempt map[*ast.FuncLit]bool
	// stack is the ancestor chain of the node being visited, used to
	// find the signature a return statement belongs to.
	stack []ast.Node
}

func (w *hotWalker) run() {
	w.capOK = map[types.Object]bool{}
	w.litExempt = map[*ast.FuncLit]bool{}
	ast.Inspect(w.fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := w.pkg.Info.Defs[id]
			if obj == nil {
				obj = w.pkg.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok {
					if b, ok := w.pkg.Info.Uses[id].(*types.Builtin); ok &&
						b.Name() == "make" && len(rhs.Args) == 3 {
						w.capOK[obj] = true
					}
				}
			case *ast.SliceExpr:
				w.capOK[obj] = true
			}
		}
		return true
	})
	ast.Inspect(w.fd.Body, w.visit)
}

func (w *hotWalker) visit(n ast.Node) bool {
	if n == nil {
		w.stack = w.stack[:len(w.stack)-1]
		return true
	}
	w.stack = append(w.stack, n)
	prune := false
	switch n := n.(type) {
	case *ast.DeferStmt:
		if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			w.litExempt[fl] = true
		}
	case *ast.GoStmt:
		if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			w.litExempt[fl] = true
		}
	case *ast.CallExpr:
		prune = w.call(n)
	case *ast.FuncLit:
		if !w.litExempt[n] {
			if name, ok := w.captures(n); ok {
				w.report(n.Pos(), "closure captures %s and escapes the hot path; captured closures allocate — hoist it or pass state explicitly", name)
			}
		}
	case *ast.CompositeLit:
		t := w.pkg.Info.TypeOf(n)
		if t != nil {
			switch t.Underlying().(type) {
			case *types.Map:
				w.report(n.Pos(), "map literal allocates; hoist it out of the hot path")
			case *types.Slice:
				w.report(n.Pos(), "slice literal allocates its backing array; reuse a preallocated buffer")
			}
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				w.report(n.Pos(), "&composite-literal allocates on escape; reuse a pooled or field-backed value")
			}
		}
	case *ast.BinaryExpr:
		w.binary(n)
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				w.boxed(w.pkg.Info.TypeOf(lhs), n.Rhs[i], "assignment")
			}
		}
	case *ast.SendStmt:
		if ch, ok := w.pkg.Info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
			w.boxed(ch.Elem(), n.Value, "channel send")
		}
	case *ast.ReturnStmt:
		w.returns(n)
	}
	if prune {
		w.stack = w.stack[:len(w.stack)-1]
		return false
	}
	return true
}

// call classifies one call expression; it returns true when the walk
// should not descend into the call (panic arguments — the cold
// termination path — are exempt wholesale, fmt.Sprintf inside them
// included).
func (w *hotWalker) call(n *ast.CallExpr) bool {
	if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
		if b, ok := w.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				return true
			case "new":
				w.report(n.Pos(), "new(T) allocates; reuse a field-backed or pooled value")
			case "make":
				w.report(n.Pos(), "make allocates; hoist construction out of the hot path or reuse a preallocated buffer")
			case "append":
				w.appendCall(n)
			}
			return false
		}
	}
	if name, ok := selectorOf(w.pkg, n.Fun, "fmt"); ok {
		w.report(n.Pos(), "fmt.%s formats through interfaces and allocates; encode into typed payload fields or move formatting off the hot path", name)
		return false
	}
	if tv, ok := w.pkg.Info.Types[n.Fun]; ok && tv.IsType() {
		if len(n.Args) == 1 {
			w.boxed(tv.Type, n.Args[0], "conversion")
		}
		return false
	}
	sig, ok := w.pkg.Info.TypeOf(n.Fun).(*types.Signature)
	if !ok {
		return false
	}
	np := sig.Params().Len()
	for i, arg := range n.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if n.Ellipsis.IsValid() {
				continue // slice passed whole: no per-element boxing
			}
			if sl, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		w.boxed(pt, arg, "argument")
	}
	return false
}

func (w *hotWalker) binary(n *ast.BinaryExpr) {
	tx, ty := w.pkg.Info.TypeOf(n.X), w.pkg.Info.TypeOf(n.Y)
	if n.Op == token.ADD && tx != nil && isString(tx) {
		w.report(n.OpPos, "string concatenation allocates; preformat off the hot path or reuse a byte buffer")
		return
	}
	if n.Op == token.EQL || n.Op == token.NEQ {
		// Comparing a concrete value against an interface boxes it.
		if tx != nil && ty != nil {
			if isInterface(tx) {
				w.boxed(tx, n.Y, "interface comparison")
			} else if isInterface(ty) {
				w.boxed(ty, n.X, "interface comparison")
			}
		}
	}
}

func (w *hotWalker) returns(n *ast.ReturnStmt) {
	sig := w.enclosingSignature()
	if sig == nil || sig.Results().Len() != len(n.Results) {
		return
	}
	for i, r := range n.Results {
		w.boxed(sig.Results().At(i).Type(), r, "return")
	}
}

// enclosingSignature finds the signature the innermost enclosing
// function literal — or the hot declaration itself — returns to.
func (w *hotWalker) enclosingSignature() *types.Signature {
	for i := len(w.stack) - 2; i >= 0; i-- {
		if fl, ok := w.stack[i].(*ast.FuncLit); ok {
			sig, _ := w.pkg.Info.TypeOf(fl).(*types.Signature)
			return sig
		}
	}
	if fn, ok := w.pkg.Info.Defs[w.fd.Name].(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		return sig
	}
	return nil
}

// boxed reports src when assigning it to dst implies boxing a concrete
// non-pointer-shaped value into an interface — the per-event allocation
// the typed Payload fields exist to avoid. Pointer-shaped values
// (pointers, channels, maps, funcs) fit the interface word, constants
// box to static data, and zero-size structs share the zero base, so
// none of those are flagged.
func (w *hotWalker) boxed(dst types.Type, src ast.Expr, context string) {
	if dst == nil || !isInterface(dst) {
		return
	}
	tv, ok := w.pkg.Info.Types[src]
	if !ok || tv.Value != nil {
		return
	}
	st := tv.Type
	if st == nil || isInterface(st) {
		return
	}
	if b, ok := st.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	switch u := st.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Struct:
		if u.NumFields() == 0 {
			return
		}
	}
	w.report(src.Pos(), "%s boxes %s into an interface and allocates; keep hot-path values concrete or pointer-shaped", context, types.TypeString(st, func(p *types.Package) string { return p.Name() }))
}

func (w *hotWalker) appendCall(n *ast.CallExpr) {
	if len(n.Args) == 0 {
		return
	}
	switch base := ast.Unparen(n.Args[0]).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
		// Field- or element-backed buffer: the reuse discipline
		// (capacity survives Reset) is the capacity evidence.
		return
	case *ast.Ident:
		obj := w.pkg.Info.Uses[base]
		if obj == nil {
			obj = w.pkg.Info.Defs[base]
		}
		if obj != nil && w.capOK[obj] {
			return
		}
	}
	w.report(n.Pos(), "append to %s has no capacity evidence (not a reused field buffer, a make with explicit capacity, or a reslice); the backing array may grow on every call", types.ExprString(n.Args[0]))
}

// captures reports whether the literal references a variable declared
// in the enclosing function (captured closures escape and allocate),
// returning the first such name.
func (w *hotWalker) captures(lit *ast.FuncLit) (string, bool) {
	name, found := "", false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == w.pkg.Types.Scope() {
			return true // package-level: referenced, not captured
		}
		if v.Pos() >= w.fd.Pos() && v.Pos() < lit.Pos() {
			name, found = id.Name, true
			return false
		}
		return true
	})
	return name, found
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// ---------------------------------------------------------------------------
// atomicmix

type atomicmixCheck struct{}

func (*atomicmixCheck) Name() string { return "atomicmix" }
func (*atomicmixCheck) Doc() string {
	return "fields accessed via sync/atomic must never be accessed plainly outside init/Reset paths, and atomic stores must have a matching atomic load"
}

// atomicFieldUse accumulates how one struct field is touched across the
// package.
type atomicFieldUse struct {
	obj          *types.Var
	atomicReads  int
	atomicWrites int
	firstWrite   token.Pos
	plain        []plainAccess
}

type plainAccess struct {
	pos    token.Pos
	inFunc string // enclosing function name, for the init/Reset exemption
}

// atomicInitExempt reports whether plain access inside the named
// function is sanctioned: construction and rewind paths run before (or
// after) the goroutines whose visibility the atomics order.
func atomicInitExempt(fn string) bool {
	return fn == "init" || fn == "Reset" || fn == "reset" ||
		strings.HasPrefix(fn, "New") || strings.HasPrefix(fn, "new")
}

func (c *atomicmixCheck) Run(pkg *Package, report ReportFunc) {
	uses := map[*types.Var]*atomicFieldUse{}
	use := func(v *types.Var) *atomicFieldUse {
		u, ok := uses[v]
		if !ok {
			u = &atomicFieldUse{obj: v}
			uses[v] = u
		}
		return u
	}

	for _, f := range pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v := fieldObject(pkg, sel)
			if v == nil {
				return true
			}
			switch kind, method, resultUsed := atomicAccessKind(pkg, stack); kind {
			case atomicTyped, atomicFunc:
				u := use(v)
				r, wr := classifyAtomicOp(method, resultUsed)
				u.atomicReads += r
				u.atomicWrites += wr
				if wr > 0 && u.firstWrite == token.NoPos {
					u.firstWrite = sel.Pos()
				}
			case plainAtomicType:
				// A typed atomic (atomic.Int32 field) touched other than
				// through a method call: copying or aliasing it. go vet
				// owns copy detection; ignore here.
			default:
				u := use(v)
				u.plain = append(u.plain, plainAccess{pos: sel.Pos(), inFunc: enclosingFuncName(stack)})
			}
			return true
		})
	}

	for _, f := range pkg.Files {
		// Re-walk declarations in file order so reporting is positional
		// and deterministic regardless of map iteration.
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v := fieldObject(pkg, sel)
			if v == nil {
				return true
			}
			u := uses[v]
			if u == nil || u.atomicReads+u.atomicWrites == 0 {
				return true
			}
			for _, p := range u.plain {
				if p.pos != sel.Pos() || atomicInitExempt(p.inFunc) {
					continue
				}
				report(p.pos, "field %s is accessed via sync/atomic elsewhere in this package but plainly here, outside an init/Reset path; mixed access races — go through sync/atomic", v.Name())
			}
			if u.atomicWrites > 0 && u.atomicReads == 0 && sel.Pos() == u.firstWrite {
				report(u.firstWrite, "atomic field %s is written but never read atomically in this package; the protocol it synchronizes has lost its load side", v.Name())
			}
			return true
		})
	}
}

type atomicKind int

const (
	plainAccessKind atomicKind = iota
	atomicTyped                // field of type sync/atomic.IntN etc., method call
	atomicFunc                 // &field passed to a sync/atomic function
	plainAtomicType            // typed atomic used without a method call
)

// atomicAccessKind classifies the selector on top of stack: is it the
// receiver of a sync/atomic typed-method call, the &-argument of a
// sync/atomic package function, or a plain access?
func atomicAccessKind(pkg *Package, stack []ast.Node) (kind atomicKind, method string, resultUsed bool) {
	sel := stack[len(stack)-1].(*ast.SelectorExpr)
	if isAtomicType(pkg.Info.TypeOf(sel)) {
		// Expect parent SelectorExpr (the method) then CallExpr.
		if len(stack) >= 3 {
			if msel, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && msel.X == sel {
				if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == msel {
					used := true
					if len(stack) >= 4 {
						_, isStmt := stack[len(stack)-4].(*ast.ExprStmt)
						used = !isStmt
					}
					return atomicTyped, msel.Sel.Name, used
				}
			}
		}
		return plainAtomicType, "", false
	}
	// &field as first argument of atomic.XxxInt64(&x.f, ...).
	if len(stack) >= 3 {
		if un, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && un.Op == token.AND && ast.Unparen(un.X) == sel {
			if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok {
				if name, ok := selectorOf(pkg, call.Fun, "sync/atomic"); ok {
					used := true
					if len(stack) >= 4 {
						_, isStmt := stack[len(stack)-4].(*ast.ExprStmt)
						used = !isStmt
					}
					return atomicFunc, name, used
				}
			}
		}
	}
	return plainAccessKind, "", false
}

// classifyAtomicOp maps an atomic method/function name to (reads,
// writes). Add-style ops count as reads only when their result is
// consumed: a discarded Add is a blind write, and a protocol whose only
// load was the discarded Add result has decayed.
func classifyAtomicOp(name string, resultUsed bool) (reads, writes int) {
	switch {
	case strings.HasPrefix(name, "Load"):
		return 1, 0
	case strings.HasPrefix(name, "Store"):
		return 0, 1
	case strings.HasPrefix(name, "Swap") || strings.HasPrefix(name, "CompareAndSwap"):
		return 1, 1
	case strings.HasPrefix(name, "Add") || strings.HasPrefix(name, "Or") || strings.HasPrefix(name, "And"):
		if resultUsed {
			return 1, 1
		}
		return 0, 1
	}
	return 1, 1 // unknown op: assume both so nothing is misreported
}

// isAtomicType reports whether t is one of sync/atomic's typed values.
func isAtomicType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// goroutineleak

type goroutineleakCheck struct{}

func (*goroutineleakCheck) Name() string { return "goroutineleak" }
func (*goroutineleakCheck) Doc() string {
	return "every go statement in the concurrency scope needs a reachable shutdown edge (return, sentinel, or close-driven loop exit) in its body"
}

func (c *goroutineleakCheck) Run(pkg *Package, report ReportFunc) {
	if !pathScopedTo(pkg, concurrencyScope) {
		return
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			var what string
			if fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				body, what = fl.Body, "goroutine closure"
			} else if fn := calleeTypesFunc(pkg, gs.Call); fn != nil {
				if fd, ok := decls[fn]; ok {
					body, what = fd.Body, funcDisplayName(fn)
				}
			}
			if body == nil {
				return true // cross-package or dynamic target: out of view
			}
			if !buildCFG(body).exitReachable() {
				report(gs.Pos(), "%s has no reachable shutdown edge: every path loops forever; add a sentinel receive, closed-channel exit, or Close-driven return", what)
			}
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// lockguard

// guardedByRe extracts the mutex name from a `guarded by mu` field
// comment (an optional trailing period is tolerated).
var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

type lockguardCheck struct{}

func (*lockguardCheck) Name() string { return "lockguard" }
func (*lockguardCheck) Doc() string {
	return "fields documented `// guarded by <mu>` may only be accessed on paths where <mu> is held (must-held dataflow over the CFG)"
}

func (c *lockguardCheck) Run(pkg *Package, report ReportFunc) {
	guarded := collectGuarded(pkg, report)
	if len(guarded) == 0 {
		return
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeLocks(pkg, fd.Body, guarded, report)
			// Function literals run at another time under another lock
			// set: analyze each with an empty entry state.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					analyzeLocks(pkg, fl.Body, guarded, report)
				}
				return true
			})
		}
	}
}

// collectGuarded parses `guarded by <mu>` field documentation into a
// field-object -> mutex-field-object map, reporting annotations whose
// named mutex is not a sync.Mutex/RWMutex sibling.
func collectGuarded(pkg *Package, report ReportFunc) map[*types.Var]*types.Var {
	guarded := map[*types.Var]*types.Var{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			mutexes := map[string]*types.Var{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok && isMutex(v.Type()) {
						mutexes[name.Name] = v
					}
				}
			}
			for _, fld := range st.Fields.List {
				doc := ""
				if fld.Doc != nil {
					doc += fld.Doc.Text()
				}
				if fld.Comment != nil {
					doc += " " + fld.Comment.Text()
				}
				m := guardedByRe.FindStringSubmatch(doc)
				if m == nil {
					continue
				}
				mu, ok := mutexes[m[1]]
				if !ok {
					report(fld.Pos(), "guarded-by annotation names %q, which is not a sync.Mutex/RWMutex sibling field", m[1])
					continue
				}
				for _, name := range fld.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
						guarded[v] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

func isMutex(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// lockFact builds the dataflow fact "mutex field mu of the value rooted
// at root is held" from stable token positions.
func lockFact(root types.Object, mu *types.Var) string {
	return itoaSmall(int(root.Pos())) + ":" + itoaSmall(int(mu.Pos()))
}

// analyzeLocks runs the must-held analysis over one function body and
// reports guarded-field accesses on paths where the documented mutex is
// not provably held.
func analyzeLocks(pkg *Package, body *ast.BlockStmt, guarded map[*types.Var]*types.Var, report ReportFunc) {
	g := buildCFG(body)
	fresh := freshLocals(pkg, body)
	transfer := func(n ast.Node, facts factSet) {
		applyLockOps(pkg, n, facts)
	}
	in := g.forwardMust(transfer)
	seen := map[string]bool{}
	for _, blk := range g.blocks {
		facts, ok := in[blk]
		if !ok {
			continue // unreachable: dead code
		}
		cur := facts.clone()
		for _, n := range blk.nodes {
			checkGuardedAccesses(pkg, n, cur, guarded, fresh, seen, report)
			applyLockOps(pkg, n, cur)
		}
	}
}

// applyLockOps folds the lock effects of one CFG node into facts:
// Lock/RLock acquires, Unlock/RUnlock releases, and deferred unlocks
// are ignored (they run at function exit, after every access).
// Function literals inside the node are opaque (they run later).
func applyLockOps(pkg *Package, n ast.Node, facts factSet) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			msel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var acquire bool
			switch msel.Sel.Name {
			case "Lock", "RLock":
				acquire = true
			case "Unlock", "RUnlock":
				acquire = false
			default:
				return true
			}
			musel, ok := ast.Unparen(msel.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			mu := fieldObject(pkg, musel)
			if mu == nil || !isMutex(mu.Type()) {
				return true
			}
			root := rootObject(pkg, musel.X)
			if root == nil {
				return true
			}
			if acquire {
				facts[lockFact(root, mu)] = true
			} else {
				delete(facts, lockFact(root, mu))
			}
		}
		return true
	})
}

// checkGuardedAccesses reports guarded-field selections in n whose
// documented mutex is not in facts. Freshly constructed locals are
// exempt (the value is not shared yet), as are accesses inside nested
// literals and defers (analyzed separately / running at exit).
func checkGuardedAccesses(pkg *Package, n ast.Node, facts factSet, guarded map[*types.Var]*types.Var, fresh map[types.Object]bool, seen map[string]bool, report ReportFunc) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SelectorExpr:
			v := fieldObject(pkg, x)
			if v == nil {
				return true
			}
			mu, ok := guarded[v]
			if !ok {
				return true
			}
			root := rootObject(pkg, x.X)
			if root == nil || fresh[root] {
				return true
			}
			if facts[lockFact(root, mu)] {
				return true
			}
			pos := pkg.Fset.Position(x.Pos())
			key := pos.Filename + ":" + v.Name() + ":" + itoaSmall(pos.Line)
			if seen[key] {
				return true
			}
			seen[key] = true
			report(x.Pos(), "field %s is documented guarded by %s but accessed on a path where it is not held; lock %s first or fix the annotation", v.Name(), mu.Name(), mu.Name())
		}
		return true
	})
}

// freshLocals collects locals bound to values constructed in this
// function (composite literals, new) — not yet shared, so their guarded
// fields may be touched lock-free.
func freshLocals(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pkg.Info.Defs[id]
			if obj == nil {
				continue // only := bindings are certainly local
			}
			if isConstruction(pkg, as.Rhs[i]) {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

func isConstruction(pkg *Package, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
				return b.Name() == "new"
			}
		}
	}
	return false
}

// itoaSmall formats a non-negative int without fmt (this file is loaded
// by besst-lint itself; keep its footprint minimal).
func itoaSmall(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
