// Command besst-lint runs the repository's custom static-analysis pass
// (internal/lint) over the given package patterns and reports every
// violation of the simulator's determinism, DES, concurrency, and
// allocation invariants. Nine checks run by default: the per-node
// walkers (nodeterminism, seeddiscipline, goroutinediscipline,
// errcheck, floateq) and the CFG/dataflow checks (hotalloc, atomicmix,
// goroutineleak, lockguard).
//
//	besst-lint ./...                     # everything (the make lint gate)
//	besst-lint -checks hotalloc,atomicmix ./internal/des
//	besst-lint -json ./internal/...      # machine-readable diagnostics
//	besst-lint -list                     # available checks
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"besst/internal/cli"
	"besst/internal/lint"
)

func main() {
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	listFlag := flag.Bool("list", false, "list available checks and exit")
	// -seed is accepted for flag uniformity across the besst tools but
	// has no effect on a lint run; -json switches the diagnostics to a
	// JSON array, and the profiling flags work as in every other tool.
	common := cli.RegisterCommon(flag.CommandLine)
	flag.Parse()

	out := cli.NewPrinter(os.Stdout)
	if *listFlag {
		for _, c := range lint.AllChecks() {
			out.Printf("%-22s %s\n", c.Name(), c.Doc())
		}
		finish(nil, out, 0)
	}

	ses, err := common.Begin("besst-lint")
	if err != nil {
		fatalf("%v", err)
	}
	checks, err := lint.SelectChecks(*checksFlag)
	if err != nil {
		fatalf("%v", err)
	}
	loader, err := lint.NewLoader("")
	if err != nil {
		fatalf("%v", err)
	}
	loadDone := ses.Phase("load-packages")
	pkgs, err := loader.LoadPatterns(flag.Args())
	loadDone()
	if err != nil {
		fatalf("%v", err)
	}

	lintDone := ses.Phase("run-checks")
	diags := lint.Run(pkgs, checks)
	lintDone()
	if common.JSON {
		if diags == nil {
			diags = []lint.Diagnostic{} // a clean run is [], not null
		}
		data, err := json.MarshalIndent(diags, "", "  ")
		if err != nil {
			fatalf("encode: %v", err)
		}
		out.Printf("%s\n", data)
	} else {
		for _, d := range diags {
			out.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "besst-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		finish(ses, out, 1)
	}
	finish(ses, out, 0)
}

// finish flushes the observability session and the printer's recorded
// error, if any, and exits.
func finish(ses *cli.Session, out *cli.Printer, code int) {
	if ses != nil {
		if err := ses.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "besst-lint: %v\n", err)
			os.Exit(2)
		}
	}
	if err := out.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "besst-lint: writing output: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "besst-lint: "+format+"\n", args...)
	os.Exit(2)
}
