// Command besst-exp reproduces the paper's tables and figures plus the
// extension experiments. With no flags it runs everything; individual
// experiments are selected with -table, -fig, and -ext. The default run
// prints the design-choice ablations last.
//
//	besst-exp -table 3          # instance-model MAPE (Table III)
//	besst-exp -fig 9            # overhead tables (Fig 9)
//	besst-exp -ext faults       # fault-injection Cases 1-4
//	besst-exp -ext ablations    # design-choice ablations (DESIGN.md)
//	besst-exp -quick            # reduced Monte Carlo counts
//	besst-exp -quick -json      # JSON index of experiments run + wall times
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"besst/internal/besst"
	"besst/internal/cli"
	"besst/internal/exp"
)

func main() {
	table := flag.Int("table", 0, "reproduce one table (1-4); 0 = all")
	fig := flag.Int("fig", 0, "reproduce one figure (1, 5-9); 0 = all")
	exts := []string{"faults", "analytic", "levels", "optlevel", "algdse", "archdse", "ablations"}
	ext := flag.String("ext", "", "extension experiment: "+strings.Join(exts, " | "))
	quick := flag.Bool("quick", false, "reduced sample and Monte Carlo counts")
	common := cli.RegisterCommon(flag.CommandLine)
	flag.Parse()
	seed := &common.Seed
	if *table < 0 || *table > 4 {
		fatalf("unknown -table %d (want 1-4)", *table)
	}
	if *fig != 0 && *fig != 1 && (*fig < 5 || *fig > 9) {
		fatalf("unknown -fig %d (want 1 or 5-9)", *fig)
	}
	if *ext != "" && !slices.Contains(exts, *ext) {
		fatalf("unknown -ext %q (want %s)", *ext, strings.Join(exts, " | "))
	}

	samples, mc, steps := 10, 10, 200
	if *quick {
		samples, mc, steps = 5, 3, 80
	}

	ses, err := common.Begin("besst-exp")
	if err != nil {
		fatalf("%v", err)
	}

	selected := func(kind string, id int, name string) bool {
		if *table == 0 && *fig == 0 && *ext == "" {
			return true // run everything by default
		}
		switch kind {
		case "table":
			return *table == id
		case "fig":
			return *fig == id
		case "ext":
			return *ext == name
		}
		return false
	}

	w := cli.NewPrinter(os.Stdout)
	// phase brackets one experiment with a named wall-clock phase, so
	// -metrics (and the -json index) report per-experiment timings.
	phase := func(name string, fn func()) {
		done := ses.Phase(name)
		fn()
		done()
	}
	var ctx *exp.Context
	// Every experiment but Tables I-II and Fig 1 reads the case-study
	// models.
	needCtx := *ext != "" || *table > 2 || *fig > 1 || (*table == 0 && *fig == 0)
	if needCtx {
		w.Printf("developing case-study models (%d samples/combination, seed %d)...\n\n", samples, *seed)
		phase("develop-models", func() { ctx = exp.NewContext(samples, *seed) })
		for _, r := range ctx.Models.Reports {
			w.Printf("  model %-18s train %6.2f%%  test %6.2f%%  validation %6.2f%%\n",
				r.Op, r.TrainMAPE, r.TestMAPE, r.ValidationMAPE)
			if r.Expression != "" {
				w.Printf("    %s\n", r.Expression)
			}
		}
		w.Println()
	}

	if selected("table", 1, "") {
		phase("table-1", func() { exp.Table1(w) })
		w.Println()
	}
	if selected("table", 2, "") {
		phase("table-2", func() { exp.Table2(w) })
		w.Println()
	}
	if selected("fig", 1, "") {
		w.Println("running Fig 1 (CMT-bone on Vulcan, predictions to 1M ranks)...")
		phase("fig-1", func() { exp.FormatFig1(w, exp.Fig1(20, mc, *seed+1)) })
		w.Println()
	}
	if selected("fig", 5, "") {
		phase("fig-5", func() {
			exp.FormatValidationPoints(w, "Fig 5: model validation vs problem size (epr)", exp.Fig5(ctx))
		})
		w.Println()
	}
	if selected("fig", 6, "") {
		phase("fig-6", func() {
			exp.FormatValidationPoints(w, "Fig 6: model validation vs number of ranks", exp.Fig6(ctx))
		})
		w.Println()
	}
	if selected("table", 3, "") {
		phase("table-3", func() { exp.FormatTable3(w, exp.Table3(ctx)) })
		w.Println()
	}
	if selected("fig", 7, "") {
		w.Println("running Fig 7 (DES mode, 64 ranks)...")
		phase("fig-7", func() {
			exp.FormatFullRun(w, "Fig 7: full application runtime, 64 ranks, epr 10",
				exp.FigFullRun(ctx, 10, 64, steps, mc, besst.DES), 20)
		})
		w.Println()
	}
	if selected("fig", 8, "") {
		w.Println("running Fig 8 (DES mode, 1000 ranks)...")
		phase("fig-8", func() {
			exp.FormatFullRun(w, "Fig 8: full application runtime, 1000 ranks, epr 10",
				exp.FigFullRun(ctx, 10, 1000, steps, mc, besst.DES), 20)
		})
		w.Println()
	}
	if selected("table", 4, "") {
		w.Println("running Table IV (full-system validation over the Table II grid)...")
		phase("table-4", func() { exp.FormatTable4(w, exp.Table4(ctx, steps, mc)) })
		w.Println()
	}
	if selected("fig", 9, "") {
		w.Println("running Fig 9 (overhead sweep)...")
		phase("fig-9", func() { exp.FormatFig9(w, exp.Fig9(ctx, steps, mc)) })
		w.Println()
	}
	if selected("ext", 0, "faults") {
		w.Println("running fault-injection extension (Fig 4 Cases 1-4)...")
		phase("ext-faults", func() {
			exp.FormatFaultStudy(w, exp.FaultStudy(ctx, 25, 64, 600000, 4*mc, 5))
		})
		w.Println()
	}
	if selected("ext", 0, "levels") {
		w.Println("running all-levels extension (FTI L1-L4 modeled)...")
		phase("ext-levels", func() { exp.FormatAllLevels(w, exp.AllLevelsStudy(ctx)) })
		w.Println()
	}
	if selected("ext", 0, "optlevel") {
		w.Println("running optimal-level extension (FT level vs failure rate)...")
		phase("ext-optlevel", func() {
			exp.FormatOptimalLevel(w, exp.OptimalLevelStudy(ctx, 25, 1000, 200000, mc,
				[]float64{2000, 200, 20, 5}))
		})
		w.Println()
	}
	if selected("ext", 0, "algdse") {
		w.Println("running algorithmic DSE extension (C/R vs ABFT)...")
		phase("ext-algdse", func() { exp.FormatAlgDSE(w, exp.AlgorithmicDSE(ctx, 40), 40) })
		w.Println()
	}
	if selected("ext", 0, "archdse") {
		w.Println("running architectural DSE extension (hardware variants)...")
		phase("ext-archdse", func() { exp.FormatArchDSE(w, exp.ArchitecturalDSE(ctx)) })
		w.Println()
	}
	if selected("ext", 0, "analytic") {
		phase("ext-analytic", func() {
			exp.FormatAnalyticStudy(w, exp.AnalyticStudy(ctx, 1e-5,
				[]int{64, 512, 4096, 32768, 262144, 1 << 20}))
		})
		w.Println()
	}
	if selected("ext", 0, "ablations") {
		w.Println("running design-choice ablations...")
		phase("ext-ablations", func() { exp.FormatAblations(w, exp.Ablations(ctx)) })
		w.Println()
	}
	if common.JSON {
		// The machine-readable index of what ran and how long each
		// experiment took (phase wall times in nanoseconds).
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Seed   uint64 `json:"seed"`
			Quick  bool   `json:"quick"`
			Phases any    `json:"phases"`
		}{*seed, *quick, ses.Phases()}); err != nil {
			fatalf("encode summary: %v", err)
		}
	}
	if err := ses.Close(); err != nil {
		fatalf("%v", err)
	}
	if err := w.Err(); err != nil {
		fatalf("writing output: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "besst-exp: "+format+"\n", args...)
	os.Exit(1)
}
