// Package lint implements besst-lint, a small static-analysis pass
// built on the standard library's go/ast, go/parser, go/token, and
// go/types (no golang.org/x/tools dependency). It machine-checks the
// conventions the simulator's reproducibility story rests on: all
// randomness flows through explicitly seeded stats.RNG streams, no
// simulation path reads ambient entropy, concurrency stays inside the
// packages built for it, errors are not silently dropped, and floats
// are never compared exactly in model code.
//
// Diagnostics print as
//
//	file.go:line:col: [check] message
//
// and a finding can be suppressed — with a mandatory reason — by a
//
//	//lint:ignore check[,check...] reason
//
// comment on the same line as the finding, on the line directly above
// it, or — when the directive sits in a declaration's doc comment — on
// any line of that declaration. Malformed, unknown-check, and (when
// every check is enabled) unused directives are themselves reported
// under the pseudo-check "lintdirective", so suppressions cannot rot
// silently. A second directive, //lint:hotpath, opts a function into
// the hotalloc check's hot-path scope and is policed the same way.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding. File is relative to the module root.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// ReportFunc records a finding at pos for the check currently running.
type ReportFunc func(pos token.Pos, format string, args ...any)

// Check is one pluggable analysis. Run must be deterministic: visiting
// files in order and reporting through the callback only.
type Check interface {
	Name() string
	Doc() string
	Run(pkg *Package, report ReportFunc)
}

// DirectiveCheck is the pseudo-check name for diagnostics about the
// //lint:ignore directives themselves.
const DirectiveCheck = "lintdirective"

// AllChecks returns the full registry in reporting order.
func AllChecks() []Check {
	return []Check{
		&nodeterminismCheck{},
		&seeddisciplineCheck{},
		&goroutinedisciplineCheck{},
		&errcheckCheck{},
		&floateqCheck{},
		&hotallocCheck{},
		&atomicmixCheck{},
		&goroutineleakCheck{},
		&lockguardCheck{},
	}
}

// SelectChecks resolves a comma-separated name list ("" = all).
func SelectChecks(names string) ([]Check, error) {
	all := AllChecks()
	if strings.TrimSpace(names) == "" {
		return all, nil
	}
	byName := map[string]Check{}
	for _, c := range all {
		byName[c.Name()] = c
	}
	var out []Check
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (run besst-lint -list)", n)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: -checks selected nothing")
	}
	return out, nil
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	file string
	line int
	col  int
	// endLine is the last line the directive covers: line+1 for a
	// free-standing comment, the declaration's closing line when the
	// directive sits in a doc comment.
	endLine int
	checks  []string
	bad     string // diagnostic text if the directive is malformed
	used    bool
}

func (d *directive) covers(diag Diagnostic) bool {
	if d.bad != "" || diag.Check == DirectiveCheck || d.file != diag.File {
		return false
	}
	if diag.Line < d.line || diag.Line > d.endLine {
		return false
	}
	for _, c := range d.checks {
		if c == diag.Check {
			return true
		}
	}
	return false
}

// parseDirectives extracts every //lint:ignore directive in pkg.
// Unknown check names are flagged against the full registry (not the
// enabled subset) so a partial -checks run never misreports them.
func parseDirectives(pkg *Package) []*directive {
	known := map[string]bool{}
	for _, c := range AllChecks() {
		known[c.Name()] = true
	}
	var out []*directive
	for _, f := range pkg.Files {
		// Directives inside a declaration's doc comment cover the whole
		// declaration span, so a contract like "caller holds mu" can be
		// suppressed once at the function head.
		declEnd := map[*ast.CommentGroup]int{}
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc != nil {
				declEnd[doc] = pkg.Fset.Position(decl.End()).Line
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := &directive{file: pkg.relFile(pos), line: pos.Line, col: pos.Column, endLine: pos.Line + 1}
				if end, ok := declEnd[cg]; ok && end > d.endLine {
					d.endLine = end
				}
				fields := strings.Fields(text)
				switch {
				case len(fields) == 0:
					d.bad = "//lint:ignore needs a check name and a reason"
				case len(fields) == 1:
					d.bad = fmt.Sprintf("//lint:ignore %s needs a reason", fields[0])
				default:
					d.checks = strings.Split(fields[0], ",")
					for _, name := range d.checks {
						if !known[name] {
							d.bad = fmt.Sprintf("//lint:ignore names unknown check %q", name)
						}
					}
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// hotpathIssues polices //lint:hotpath directives: they take no
// arguments and must sit in a function declaration's doc comment.
func hotpathIssues(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		isDoc := map[*ast.CommentGroup]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				isDoc[fd.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, HotpathDirective)
				if !ok {
					continue
				}
				var msg string
				switch {
				case strings.TrimSpace(rest) != "":
					msg = "//lint:hotpath takes no arguments"
				case !isDoc[cg]:
					msg = "//lint:hotpath must sit in a function declaration's doc comment"
				default:
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, Diagnostic{
					File: pkg.relFile(pos), Line: pos.Line, Col: pos.Column,
					Check: DirectiveCheck, Message: msg,
				})
			}
		}
	}
	return out
}

// Run executes the checks over the packages and returns the surviving
// diagnostics sorted by file, line, column, check, and message. When
// checks covers the full registry, directives that suppress nothing
// are reported as unused.
func Run(pkgs []*Package, checks []Check) []Diagnostic {
	fullRun := len(checks) == len(AllChecks())

	var diags []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, c := range checks {
			name := c.Name()
			c.Run(pkg, func(pos token.Pos, format string, args ...any) {
				p := pkg.Fset.Position(pos)
				raw = append(raw, Diagnostic{
					File:    pkg.relFile(p),
					Line:    p.Line,
					Col:     p.Column,
					Check:   name,
					Message: fmt.Sprintf(format, args...),
				})
			})
		}
		dirs := parseDirectives(pkg)
		for _, diag := range raw {
			suppressed := false
			for _, d := range dirs {
				if d.covers(diag) {
					d.used = true
					suppressed = true
				}
			}
			if !suppressed {
				diags = append(diags, diag)
			}
		}
		diags = append(diags, hotpathIssues(pkg)...)
		for _, d := range dirs {
			switch {
			case d.bad != "":
				diags = append(diags, Diagnostic{
					File: d.file, Line: d.line, Col: d.col,
					Check: DirectiveCheck, Message: d.bad,
				})
			case !d.used && fullRun:
				diags = append(diags, Diagnostic{
					File: d.file, Line: d.line, Col: d.col,
					Check:   DirectiveCheck,
					Message: fmt.Sprintf("//lint:ignore %s suppresses no diagnostic; remove it", strings.Join(d.checks, ",")),
				})
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	// Dedupe identical findings (e.g. a check reporting the same node
	// through two syntactic routes).
	out := diags[:0]
	for i, d := range diags {
		if i == 0 || d != diags[i-1] {
			out = append(out, d)
		}
	}
	return out
}

// pathScopedTo reports whether pkg's module-relative import path lies
// at or under any of the given prefixes.
func pathScopedTo(pkg *Package, prefixes []string) bool {
	rel := pkg.Rel()
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}
