// Command besst-dse sweeps the fault-tolerance design space and prints
// the Co-Design phase outputs: the Fig 9-style overhead tables, the
// FT-level ranking at a chosen design point, and the pruning report
// flagging where the models diverge from the benchmarks (the regions
// the paper routes to direct runs or fine-grained simulators).
//
//	besst-dse
//	besst-dse -threshold 10 -epr 15 -ranks 216
//	besst-dse -json -metrics results/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"besst/internal/besst"
	"besst/internal/cli"
	"besst/internal/dse"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/resilience"
	"besst/internal/serve"
	"besst/internal/workflow"
)

// jsonReport is the -json output: every sweep cell, the FT-level
// ranking at the chosen design point, and the pruning report. Search
// is present only under -search.
type jsonReport struct {
	Cells   []dse.Cell       `json:"cells"`
	Ranking []dse.Cell       `json:"ranking"`
	Pruning []dse.Divergence `json:"pruning"`
	Search  *searchSummary   `json:"search,omitempty"`
}

// searchSummary mirrors serve.SearchSummary plus the CLI's memo
// counters.
type searchSummary struct {
	Budget     float64       `json:"budget"`
	GridPoints int           `json:"grid_points"`
	FullSims   int           `json:"full_sims"`
	Rounds     int           `json:"rounds"`
	Best       dse.Cell      `json:"best"`
	Memo       dse.MemoStats `json:"memo"`
}

func main() {
	samples := flag.Int("samples", 10, "benchmark samples per combination")
	steps := flag.Int("steps", 200, "timesteps per simulated run")
	mc := flag.Int("mc", 5, "Monte Carlo replications per design point")
	threshold := flag.Float64("threshold", 15, "pruning threshold, percent divergence")
	epr := flag.Int("epr", 15, "design point for FT-level ranking: problem size")
	ranks := flag.Int("ranks", 216, "design point for FT-level ranking: ranks")
	search := flag.Bool("search", false, "surrogate-guided sweep: fully simulate only a budgeted subset of the grid, fill the rest from per-scenario surrogates")
	budget := flag.Float64("budget", 0.4, "fraction of the grid -search may fully simulate (0 < budget <= 1)")
	memoPath := flag.String("memo", "", "append-only design-point memo journal for -search; replayed on boot so repeat runs skip simulated points")
	common := cli.RegisterCommon(flag.CommandLine)
	common.RegisterCampaign(flag.CommandLine)
	distFlags := cli.RegisterDist(flag.CommandLine)
	flag.Parse()

	out := cli.NewPrinter(os.Stdout)
	ses, err := common.Begin("besst-dse")
	if err != nil {
		fatalf("%v", err)
	}
	if *search && distFlags.Enabled() {
		fatalf("-search runs in-process: adaptive rounds have no static shard space to distribute (drop -dist)")
	}
	if *search && ses.CampaignEnabled() {
		fatalf("-search does not use campaign checkpoints or chaos; its persistence is the -memo journal (drop -ckpt, -resume and -chaos)")
	}

	// The model bundle both execution paths evaluate against, in the
	// campaign request's terms.
	modelSpec := serve.ModelSpec{Method: "symreg", Samples: *samples, Seed: common.Seed}

	// -dist: run the overhead sweep as a dse_sweep campaign on a
	// besst-worker fleet and print the merged result document,
	// byte-identical to besst-serve's result for the same request. The
	// pruning report needs the local benchmark campaign, so it is
	// skipped — run without -dist for it.
	if distFlags.Enabled() {
		req := serve.CampaignRequest{
			SchemaVersion: serve.RequestSchemaVersion,
			Kind:          serve.KindSweep,
			// Seed+1 mirrors the local path's dse.WithSeed(common.Seed+1).
			Run:   besst.RunSpec{SchemaVersion: 1, Seed: common.Seed + 1},
			Model: &modelSpec,
			Sweep: &serve.SweepSpec{
				EPRs:      []int{10, 15, 20, 25},
				Ranks:     []int{64, 216, 1000},
				Scenarios: []string{"noft", "l1", "l1l2"},
				Timesteps: *steps,
				MCRuns:    *mc,
			},
		}
		raw, err := json.Marshal(req)
		if err != nil {
			fatalf("marshal campaign request: %v", err)
		}
		progress := cli.NewPrinter(os.Stderr)
		progress.Printf("dist: pruning report skipped (needs the local benchmark campaign)\n")
		doc, err := cli.RunDist(distFlags, progress, raw)
		if err != nil {
			fatalf("%v", err)
		}
		if _, err := out.Write(doc); err != nil {
			fatalf("writing output: %v", err)
		}
		if err := ses.Close(); err != nil {
			fatalf("%v", err)
		}
		return
	}
	em := groundtruth.NewQuartz()
	if !common.JSON {
		out.Printf("developing models (%d samples/combination)...\n", *samples)
	}
	devDone := ses.Phase("develop-models")
	models, campaign := workflow.DevelopLuleshQuartz(em, *samples, workflow.SymbolicRegression, common.Seed)
	devDone()

	sweepDone := ses.Phase("overhead-sweep")
	// Built through the same functional-option constructor and Validate
	// path besst-serve uses for sweep requests.
	sweepCfg := dse.NewSweepConfig(
		dse.WithEPRs(10, 15, 20, 25),
		dse.WithRanks(64, 216, 1000),
		dse.WithScenarios(lulesh.ScenarioNoFT, lulesh.ScenarioL1, lulesh.ScenarioL1L2),
		dse.WithTimesteps(*steps),
		dse.WithMCRuns(*mc),
		dse.WithSeed(common.Seed+1),
		dse.WithConcurrency(common.Workers),
		dse.WithCollector(ses.SweepCollector()),
	)
	if err := sweepCfg.Validate(); err != nil {
		fatalf("%v", err)
	}
	var cells []dse.Cell
	var summary *searchSummary
	if *search {
		memo := dse.NewMemo(0)
		if *memoPath != "" {
			if memo, err = dse.NewMemoJournal(0, *memoPath); err != nil {
				fatalf("%v", err)
			}
		}
		// Keyed like besst-serve's sweeps, so one -memo journal is shared
		// with the equivalent dse_sweep search request.
		prepared := dse.PrepareSweep(models, em.M, em.Cost.Config.NodeSize, sweepCfg)
		prepared.AttachMemo(memo, serve.MemoBundle(modelSpec))
		res, serr := prepared.Search(dse.SearchConfig{Budget: *budget})
		if serr != nil {
			fatalf("%v", serr)
		}
		cells = res.Cells
		summary = &searchSummary{
			Budget:     *budget,
			GridPoints: prepared.NumPoints(),
			FullSims:   res.FullSims,
			Rounds:     res.Rounds,
			Best:       res.Best,
			Memo:       memo.Stats(),
		}
		if err := memo.Close(); err != nil {
			fatalf("close memo journal: %v", err)
		}
	} else {
		// Without -ckpt/-resume/-chaos the campaign keeps no journal and
		// injects nothing, so its cells equal a plain dse.OverheadSweep.
		prepared := dse.PrepareSweep(models, em.M, em.Cost.Config.NodeSize, sweepCfg)
		hash := resilience.ConfigHash("besst-dse", *samples, *steps, *mc, common.Seed)
		sweepCells, rep, err := resilience.SweepResumable(prepared, ses.Campaign(hash))
		if err != nil {
			fatalf("%v", err)
		}
		progress := cli.NewPrinter(os.Stderr)
		cli.ReportCampaign(progress, rep)
		if err := progress.Err(); err != nil {
			fatalf("writing progress: %v", err)
		}
		cells = sweepCells
	}
	sweepDone()

	pruneDone := ses.Phase("prune-report")
	pruning := dse.PruneReport(models, campaign, *threshold)
	pruneDone()
	ranking := dse.RankFTLevels(cells, *epr, *ranks)

	if common.JSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReport{Cells: cells, Ranking: ranking, Pruning: pruning, Search: summary}); err != nil {
			fatalf("encode report: %v", err)
		}
	} else {
		if summary != nil {
			out.Printf("\nSurrogate-guided search: simulated %d of %d grid points in %d rounds (budget %.0f%%)\n",
				summary.FullSims, summary.GridPoints, summary.Rounds, summary.Budget*100)
			out.Printf("  best: %-8s epr=%d ranks=%d %.4gs\n",
				summary.Best.Scenario, summary.Best.EPR, summary.Best.Ranks, summary.Best.MeanSec)
			out.Printf("  memo: %d entries, hits=%d misses=%d\n",
				summary.Memo.Entries, summary.Memo.Hits, summary.Memo.Misses)
		}
		out.Println("\nOverhead prediction (percent of no-FT runtime at 64 ranks per epr):")
		for _, r := range []int{64, 216, 1000} {
			out.Println(dse.FormatOverheadTable(cells, r))
		}

		out.Printf("FT-level ranking at epr=%d, ranks=%d:\n", *epr, *ranks)
		for i, c := range ranking {
			out.Printf("  %d. %-8s %.4gs (%.0f%%)\n", i+1, c.Scenario, c.MeanSec, c.OverheadPct)
		}

		out.Printf("\nPruning report (|divergence| > %.0f%%):\n", *threshold)
		flagged := 0
		for _, d := range pruning {
			if !d.Flagged {
				continue
			}
			flagged++
			out.Printf("  %-18s epr=%-3d ranks=%-5d measured %.4gs predicted %.4gs (%+.1f%%)\n    -> %s\n",
				d.Op, d.EPR, d.Ranks, d.MeasuredSec, d.PredictedSec, d.PercentError, d.Advice)
		}
		if flagged == 0 {
			out.Println("  no design-space regions flagged; models cover the grid")
		}
	}
	if err := ses.Close(); err != nil {
		fatalf("%v", err)
	}
	if err := out.Err(); err != nil {
		fatalf("writing output: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "besst-dse: "+format+"\n", args...)
	os.Exit(1)
}
