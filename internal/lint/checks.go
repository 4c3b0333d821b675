package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// ---------------------------------------------------------------------------
// Shared type helpers

var errorType = types.Universe.Lookup("error").Type()

// pkgName resolves expr to the *types.PkgName it names, or nil.
func pkgName(pkg *Package, expr ast.Expr) *types.PkgName {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := pkg.Info.Uses[id].(*types.PkgName)
	return pn
}

// selectorOf reports whether expr is a selector of the named package
// (by import path), returning the selected name.
func selectorOf(pkg *Package, expr ast.Expr, pkgPath string) (string, bool) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pn := pkgName(pkg, sel.X)
	if pn == nil || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// calleeTypesFunc resolves the *types.Func a call invokes (package
// function or method), or nil for conversions, builtins, and calls of
// function-typed values.
func calleeTypesFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// isNamed reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// ---------------------------------------------------------------------------
// nodeterminism

// nondetScope is the simulation core: every package whose output feeds
// the paper's validation tables must be a pure function of its inputs
// and explicit seeds.
var nondetScope = []string{
	"internal/des", "internal/besst", "internal/dse", "internal/groundtruth",
	"internal/stats", "internal/workflow", "internal/exp",
	"internal/netsim", "internal/benchdata",
}

// forbiddenImports are entropy sources whose mere presence in a
// simulation package is a violation; stats.RNG is the only sanctioned
// randomness.
var forbiddenImports = map[string]string{
	"math/rand":    "use the explicitly seeded stats.RNG instead",
	"math/rand/v2": "use the explicitly seeded stats.RNG instead",
	"crypto/rand":  "simulation code must be reproducible from its seed",
}

// forbiddenCalls maps package path -> function names that read ambient
// entropy (wall clock, process identity).
var forbiddenCalls = map[string]map[string]string{
	"time": {
		"Now":   "derive time from the DES clock or take it as a parameter",
		"Since": "derive durations from simulated timestamps",
		"Until": "derive durations from simulated timestamps",
	},
	"os": {
		"Getpid":  "process identity must not influence simulation output",
		"Getppid": "process identity must not influence simulation output",
	},
}

type nodeterminismCheck struct{}

func (*nodeterminismCheck) Name() string { return "nodeterminism" }
func (*nodeterminismCheck) Doc() string {
	return "simulation packages must not read wall-clock time, process identity, or math/rand entropy"
}

func (c *nodeterminismCheck) Run(pkg *Package, report ReportFunc) {
	if !pathScopedTo(pkg, nondetScope) {
		return
	}
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := forbiddenImports[path]; ok {
				report(imp.Pos(), "import of %s in a simulation package; %s", path, why)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := pkgName(pkg, sel.X)
			if pn == nil {
				return true
			}
			if why, ok := forbiddenCalls[pn.Imported().Path()][sel.Sel.Name]; ok {
				report(sel.Pos(), "%s.%s is nondeterministic; %s", pn.Imported().Name(), sel.Sel.Name, why)
			}
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// seeddiscipline

type seeddisciplineCheck struct{}

func (*seeddisciplineCheck) Name() string { return "seeddiscipline" }
func (*seeddisciplineCheck) Doc() string {
	return "RNGs built inside loops must consume pre-drawn per-item seeds (par.SeedFan), not reused masters or loop-variable arithmetic"
}

func (c *seeddisciplineCheck) Run(pkg *Package, report ReportFunc) {
	for _, f := range pkg.Files {
		ast.Walk(&seedVisitor{pkg: pkg, report: report}, f)
	}
}

// seedVisitor walks a file carrying the set of loop variables currently
// in scope; each loop pushes a frame, and the frame pops automatically
// because child visitors get their own copy of the stack.
type seedVisitor struct {
	pkg      *Package
	report   ReportFunc
	loopVars map[types.Object]bool // all active loop variables
	inLoop   bool
}

func (v *seedVisitor) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		return nil
	}
	child := *v
	switch s := n.(type) {
	case *ast.ForStmt:
		child.inLoop = true
		child.loopVars = extendLoopVars(v.pkg, v.loopVars, forStmtVars(v.pkg, s))
	case *ast.RangeStmt:
		child.inLoop = true
		child.loopVars = extendLoopVars(v.pkg, v.loopVars, rangeStmtVars(v.pkg, s))
	case *ast.CallExpr:
		v.checkCall(s)
	}
	return &child
}

func extendLoopVars(pkg *Package, base map[types.Object]bool, add []types.Object) map[types.Object]bool {
	out := make(map[types.Object]bool, len(base)+len(add))
	for o := range base {
		out[o] = true
	}
	for _, o := range add {
		if o != nil {
			out[o] = true
		}
	}
	return out
}

func forStmtVars(pkg *Package, s *ast.ForStmt) []types.Object {
	assign, ok := s.Init.(*ast.AssignStmt)
	if !ok {
		return nil
	}
	var out []types.Object
	for _, lhs := range assign.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := pkg.Info.Defs[id]; obj != nil {
				out = append(out, obj)
			} else if obj := pkg.Info.Uses[id]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

func rangeStmtVars(pkg *Package, s *ast.RangeStmt) []types.Object {
	var out []types.Object
	for _, e := range []ast.Expr{s.Key, s.Value} {
		if id, ok := e.(*ast.Ident); ok && id != nil {
			if obj := pkg.Info.Defs[id]; obj != nil {
				out = append(out, obj)
			} else if obj := pkg.Info.Uses[id]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

func (v *seedVisitor) checkCall(call *ast.CallExpr) {
	if !v.inLoop || len(call.Args) != 1 {
		return
	}
	fn := calleeTypesFunc(v.pkg, call)
	if fn == nil || fn.FullName() != "besst/internal/stats.NewRNG" {
		return
	}
	arg := unwrapConversions(v.pkg, call.Args[0])
	// A nested call is a named derivation helper (or an RNG draw like
	// master.Uint64()); an index expression is a pre-drawn seed table.
	// Both are the sanctioned per-item patterns.
	if containsNonConversionCall(v.pkg, arg) || containsIndexExpr(arg) {
		return
	}
	if !usesAnyObject(v.pkg, arg, v.loopVars) {
		report := "stats.NewRNG(%s) inside a loop reuses a loop-invariant seed, so every iteration replays the same stream; pre-draw per-item seeds with par.SeedFan"
		v.report(call.Pos(), report, types.ExprString(call.Args[0]))
		return
	}
	// The loop variable itself (or a field of the ranged-over item) is a
	// legitimate per-item seed source.
	if isIdentOrFieldChain(arg) {
		return
	}
	v.report(call.Pos(),
		"stats.NewRNG(%s) derives its seed from a loop variable by arithmetic; route it through par.SeedFan or a named derivation helper",
		types.ExprString(call.Args[0]))
}

// unwrapConversions strips parens and type conversions (uint64(i), ...)
// so classification sees the underlying seed expression.
func unwrapConversions(pkg *Package, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		tv, ok := pkg.Info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return e
		}
		e = call.Args[0]
	}
}

func containsNonConversionCall(pkg *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if tv, isConv := pkg.Info.Types[call.Fun]; !isConv || !tv.IsType() {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

func containsIndexExpr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.IndexExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

func usesAnyObject(pkg *Package, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isIdentOrFieldChain reports whether e is a bare identifier or a
// selector chain rooted at one (x, x.Seed, item.Cfg.Seed).
func isIdentOrFieldChain(e ast.Expr) bool {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return true
		case *ast.SelectorExpr:
			e = t.X
		default:
			return false
		}
	}
}

// ---------------------------------------------------------------------------
// goroutinediscipline

// concurrencyScope is where goroutines may be spawned: the worker pool,
// the observability layer (whose hooks are invoked from concurrent
// Monte Carlo trials and must guard shared buffers), the campaign resilience runner (whose watchdog must race a
// trial attempt against a timer), the simulation service (whose
// scheduler, campaign runners, and signal handling are daemon plumbing
// outside any single trial), the distributed coordinator/worker layer
// (replica fan-out, heartbeats, worker signal handling), and the
// design-space explorer (whose cross-campaign point memo is a
// mutex-guarded LRU shared between concurrent campaigns). Everything
// else must go through par.ForEach so draining, panic propagation, and
// the determinism contract stay in one place.
var concurrencyScope = []string{
	"internal/par", "internal/obs", "internal/resilience", "internal/serve",
	"internal/dist", "internal/dse",
}

type goroutinedisciplineCheck struct{}

func (*goroutinedisciplineCheck) Name() string { return "goroutinediscipline" }
func (*goroutinedisciplineCheck) Doc() string {
	return "go statements and sync.WaitGroup are confined to internal/par, internal/obs, internal/resilience, internal/serve, internal/dist, and internal/dse"
}

func (c *goroutinedisciplineCheck) Run(pkg *Package, report ReportFunc) {
	if pathScopedTo(pkg, concurrencyScope) {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				report(s.Pos(), "bare go statement outside the concurrency scope (internal/par, internal/obs, internal/resilience, internal/serve, internal/dist, internal/dse); use par.ForEach so pool draining and panic propagation stay centralized")
			case *ast.Ident:
				if tn, ok := pkg.Info.Uses[s].(*types.TypeName); ok &&
					tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "WaitGroup" {
					report(s.Pos(), "sync.WaitGroup outside the concurrency scope (internal/par, internal/obs, internal/resilience, internal/serve, internal/dist, internal/dse); use par.ForEach instead of hand-rolled fan-out")
				}
			}
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// errcheck

type errcheckCheck struct{}

func (*errcheckCheck) Name() string { return "errcheck" }
func (*errcheckCheck) Doc() string {
	return "no silently discarded error returns (stderr prints, strings.Builder/bytes.Buffer writes, and cli.Printer output are blessed)"
}

func (c *errcheckCheck) Run(pkg *Package, report ReportFunc) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					c.flag(pkg, call, "", report)
				}
			case *ast.DeferStmt:
				c.flag(pkg, s.Call, "deferred ", report)
			case *ast.GoStmt:
				c.flag(pkg, s.Call, "spawned ", report)
			}
			return true
		})
	}
}

func (c *errcheckCheck) flag(pkg *Package, call *ast.CallExpr, kind string, report ReportFunc) {
	t := pkg.Info.TypeOf(call)
	if t == nil || !resultCarriesError(t) || c.blessed(pkg, call) {
		return
	}
	name := "call"
	if fn := calleeTypesFunc(pkg, call); fn != nil {
		name = funcDisplayName(fn)
	}
	report(call.Pos(), "%s%s returns an error that is discarded; handle it, assign it to _, or suppress with a reason", kind, name)
}

func resultCarriesError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errorType)
}

// blessed lists the writes whose errors are safe to drop: diagnostics
// to stderr (already the process's error channel), in-memory builders
// that document never failing, and the error-absorbing cli.Printer
// (which records the first failure for the caller to surface at exit).
func (c *errcheckCheck) blessed(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeTypesFunc(pkg, call)
	if fn == nil {
		return false
	}
	switch fn.FullName() {
	case "fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		if name, ok := selectorOf(pkg, call.Args[0], "os"); ok && name == "Stderr" {
			return true
		}
		if t := pkg.Info.TypeOf(call.Args[0]); t != nil && neverFailingWriter(t) {
			return true
		}
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return neverFailingWriter(sig.Recv().Type())
}

// neverFailingWriter reports whether t is a writer whose errors are
// safe to drop: the in-memory builders (documented to never fail) and
// the error-absorbing cli.Printer.
func neverFailingWriter(t types.Type) bool {
	return isNamed(t, "strings", "Builder") ||
		isNamed(t, "bytes", "Buffer") ||
		isNamed(t, "besst/internal/cli", "Printer")
}

func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		qual := func(p *types.Package) string { return p.Name() }
		return "(" + types.TypeString(sig.Recv().Type(), qual) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// ---------------------------------------------------------------------------
// floateq

type floateqCheck struct{}

func (*floateqCheck) Name() string { return "floateq" }
func (*floateqCheck) Doc() string {
	return "no == or != on float operands; compare through stats.ApproxEqual or suppress with the reason exactness is intended"
}

func (c *floateqCheck) Run(pkg *Package, report ReportFunc) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
				return true
			}
			tx, ty := pkg.Info.TypeOf(b.X), pkg.Info.TypeOf(b.Y)
			if (tx != nil && isFloat(tx)) || (ty != nil && isFloat(ty)) {
				report(b.OpPos, "%s compares floats exactly; use stats.ApproxEqual(a, b, tol) or suppress with the reason bit-exactness is intended", b.Op)
			}
			return true
		})
	}
}
