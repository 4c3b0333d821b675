package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"besst/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the expected.txt golden files")

// fixtures maps each testdata package to the import path it is loaded
// under. The synthetic paths matter: path-scoped checks decide from the
// import path whether a package is in scope, so the nodeterminism
// fixture poses as part of internal/des while the goroutine fixture
// stays outside the concurrency scope.
var fixtures = []struct {
	dir        string
	importPath string
}{
	{"nodeterminism", "besst/internal/des/ndfix"},
	{"seeddiscipline", "besst/internal/lint/testdata/seeddiscipline"},
	{"goroutinediscipline", "besst/internal/lint/testdata/goroutinediscipline"},
	{"errcheck", "besst/internal/lint/testdata/errcheck"},
	{"floateq", "besst/internal/lint/testdata/floateq"},
	{"hotalloc", "besst/internal/lint/testdata/hotalloc"},
	{"atomicmix", "besst/internal/lint/testdata/atomicmix"},
	{"goroutineleak", "besst/internal/par/leakfix"},
	{"lockguard", "besst/internal/lint/testdata/lockguard"},
	{"suppress", "besst/internal/lint/testdata/suppress"},
}

func newLoader(t *testing.T) *lint.Loader {
	t.Helper()
	l, err := lint.NewLoader("")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

func loadFixture(t *testing.T, l *lint.Loader, dir, importPath string) *lint.Package {
	t.Helper()
	pkg, err := l.LoadDir(filepath.Join("testdata", dir), importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

func render(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGolden runs the full check registry over each fixture package and
// compares the rendered diagnostics against the committed expected.txt.
// Regenerate with go test ./internal/lint -run TestGolden -update.
func TestGolden(t *testing.T) {
	l := newLoader(t)
	for _, f := range fixtures {
		t.Run(f.dir, func(t *testing.T) {
			pkg := loadFixture(t, l, f.dir, f.importPath)
			got := render(lint.Run([]*lint.Package{pkg}, lint.AllChecks()))
			golden := filepath.Join("testdata", f.dir, "expected.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", f.dir, got, want)
			}
		})
	}
}

// TestSuppression pins the suppression contract beyond the golden file:
// directives with a reason remove their finding, and the directive
// pseudo-check reports malformed, unknown, and unused directives.
func TestSuppression(t *testing.T) {
	l := newLoader(t)
	pkg := loadFixture(t, l, "suppress", "besst/internal/lint/testdata/suppress")
	out := render(lint.Run([]*lint.Package{pkg}, lint.AllChecks()))

	for _, suppressed := range []string{
		"bit-exactness is intended in this fixture",
		"zero is the sentinel here",
		"comparisons in this helper are bit-exact by design",
	} {
		if strings.Contains(out, suppressed) {
			t.Errorf("suppression reason leaked into diagnostics: %q", suppressed)
		}
	}
	for _, want := range []string{
		"[floateq]",                   // the unsuppressed comparison survives
		"needs a reason",              // malformed directive
		`unknown check "nosuchcheck"`, // unknown-check directive
		"suppresses no diagnostic",    // unused directive
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diagnostics missing %q:\n%s", want, out)
		}
	}
	// Exactly two floateq findings survive: unsuppressed and the body
	// under the malformed (hence inert) directive.
	if n := strings.Count(out, "[floateq]"); n != 2 {
		t.Errorf("got %d floateq findings, want 2:\n%s", n, out)
	}
}

// TestSubsetRun checks -checks semantics: a partial run still reports
// malformed directives but never flags unused ones (a directive for a
// disabled check is not unused, just unexercised).
func TestSubsetRun(t *testing.T) {
	l := newLoader(t)
	pkg := loadFixture(t, l, "suppress", "besst/internal/lint/testdata/suppress")
	checks, err := lint.SelectChecks("floateq")
	if err != nil {
		t.Fatalf("SelectChecks: %v", err)
	}
	out := render(lint.Run([]*lint.Package{pkg}, checks))
	if strings.Contains(out, "suppresses no diagnostic") {
		t.Errorf("partial run reported an unused directive:\n%s", out)
	}
	if !strings.Contains(out, "needs a reason") {
		t.Errorf("partial run dropped the malformed-directive finding:\n%s", out)
	}
}

func TestSelectChecksUnknown(t *testing.T) {
	if _, err := lint.SelectChecks("floateq,bogus"); err == nil {
		t.Fatal("SelectChecks accepted an unknown check name")
	}
	if _, err := lint.SelectChecks(" , "); err == nil {
		t.Fatal("SelectChecks accepted an empty selection")
	}
}

// TestDeterministic runs the whole fixture pipeline twice from scratch
// — fresh loaders, fresh type-checks — and requires byte-identical
// output, the same property the lint gate itself depends on.
func TestDeterministic(t *testing.T) {
	outs := make([]string, 2)
	for i := range outs {
		l := newLoader(t)
		var pkgs []*lint.Package
		for _, f := range fixtures {
			pkgs = append(pkgs, loadFixture(t, l, f.dir, f.importPath))
		}
		outs[i] = render(lint.Run(pkgs, lint.AllChecks()))
	}
	if outs[0] != outs[1] {
		t.Errorf("two runs diverged\n--- first ---\n%s--- second ---\n%s", outs[0], outs[1])
	}
}

// TestTreeIsClean is the gate besst-lint enforces in make check: the
// committed tree must produce zero diagnostics under the full registry.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped with -short")
	}
	l := newLoader(t)
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	if diags := lint.Run(pkgs, lint.AllChecks()); len(diags) != 0 {
		t.Errorf("committed tree has %d lint findings:\n%s", len(diags), render(diags))
	}
}
