// Command besst-bench runs the synthetic benchmarking campaign of the
// Model Development phase: it times the LULESH timestep function and
// the requested FTI checkpoint levels over the (epr, ranks) grid on the
// emulated Quartz and writes the samples as CSV (stdout or -o file,
// JSON with -json) for besst-model to fit.
//
// With -ledger it instead runs the benchmark ledger (internal/ledger):
// every gated benchmark, once. It writes results/BENCH.json, compares
// it with the committed results/BENCH_baseline.json under the ledger's
// fixed rules, and exits nonzero on any regression.
//
//	besst-bench -samples 10 -o campaign.csv
//	besst-bench -machine vulcan -app cmtbone -o cmt.csv
//	besst-bench -ledger -cpuprofile results/bench.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"besst/internal/benchdata"
	"besst/internal/cli"
	"besst/internal/fti"
	"besst/internal/groundtruth"
	"besst/internal/ledger"
)

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	machineName := flag.String("machine", "quartz", "ground-truth machine: quartz | vulcan")
	app := flag.String("app", "lulesh", "application: lulesh | cmtbone")
	eprs := flag.String("epr", "5,10,15,20,25", "problem sizes (lulesh) or element counts (cmtbone)")
	ranks := flag.String("ranks", "8,64,216,512,1000", "rank counts")
	levels := flag.String("levels", "1,2", "FTI checkpoint levels to benchmark (lulesh only)")
	samples := flag.Int("samples", 10, "timing samples per parameter combination")
	out := flag.String("o", "", "output path (default stdout)")
	ledgerRun := flag.Bool("ledger", false, "run the benchmark ledger, write "+ledgerOut+" and gate it against "+ledgerBaseline+" instead of collecting a campaign")
	// -workers keeps its historical default of 1: any other value
	// selects the per-combination seeded parallel campaign collector.
	common := cli.RegisterCommon(flag.CommandLine, 1)
	flag.Parse()

	ses, err := common.Begin("besst-bench")
	if err != nil {
		fatalf("%v", err)
	}

	if *ledgerRun {
		ok := runLedger()
		closeSession(ses)
		if !ok {
			os.Exit(1)
		}
		return
	}

	var em *groundtruth.Emulator
	switch *machineName {
	case "quartz":
		em = groundtruth.NewQuartz()
	case "vulcan":
		em = groundtruth.NewVulcan()
	default:
		fatalf("unknown machine %q", *machineName)
	}

	eprList, err := parseIntList(*eprs)
	if err != nil {
		fatalf("-epr: %v", err)
	}
	rankList, err := parseIntList(*ranks)
	if err != nil {
		fatalf("-ranks: %v", err)
	}

	collectDone := ses.Phase("collect-campaign")
	var campaign *benchdata.Campaign
	switch *app {
	case "lulesh":
		levelList, err := parseIntList(*levels)
		if err != nil {
			fatalf("-levels: %v", err)
		}
		var fls []fti.Level
		for _, l := range levelList {
			fl := fti.Level(l)
			if !fl.Valid() {
				fatalf("invalid FTI level %d", l)
			}
			fls = append(fls, fl)
		}
		plan := benchdata.LuleshPlan{
			EPRs: eprList, Ranks: rankList, Levels: fls,
			SamplesPer: *samples, Seed: common.Seed,
		}
		if common.Workers == 1 {
			campaign = benchdata.CollectLulesh(em, plan)
		} else {
			campaign = benchdata.CollectLuleshParallel(em, plan, common.Workers)
		}
	case "cmtbone":
		campaign = benchdata.CollectCmtBone(em, eprList, rankList, *samples, common.Seed)
	default:
		fatalf("unknown app %q", *app)
	}
	collectDone()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("create %s: %v", *out, err)
		}
		w = f
	}
	if common.JSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(campaign); err != nil {
			fatalf("write JSON: %v", err)
		}
	} else {
		if err := campaign.WriteCSV(w); err != nil {
			fatalf("write CSV: %v", err)
		}
	}
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			fatalf("close %s: %v", *out, err)
		}
	}
	closeSession(ses)
	fmt.Fprintf(os.Stderr, "collected %d samples across %d ops on %s\n",
		len(campaign.Samples), len(campaign.Ops()), em.M.Name)
}

const (
	ledgerOut      = "results/BENCH.json"
	ledgerBaseline = "results/BENCH_baseline.json"
)

// runLedger runs the registry, writes the fresh report and reports
// whether it passes every rule against the committed baseline.
func runLedger() bool {
	base, err := ledger.Load(ledgerBaseline)
	if err != nil {
		fatalf("load baseline: %v", err)
	}
	fmt.Fprintf(os.Stderr, "besst-bench: ledger of %d entries (GOMAXPROCS %d, %d CPUs)\n",
		len(ledger.Registry), runtime.GOMAXPROCS(0), runtime.NumCPU())
	cur, err := ledger.Run()
	if err != nil {
		fatalf("ledger: %v", err)
	}
	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		fatalf("marshal report: %v", err)
	}
	if err := os.WriteFile(ledgerOut, append(data, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", ledgerOut, err)
	}
	for _, e := range cur.Entries {
		bm, _ := base.Lookup(e.Name)
		names := make([]string, 0, len(e.Metrics))
		for m := range e.Metrics {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			was := "-"
			if v, ok := bm[m]; ok {
				was = ledger.Num(v)
			}
			fmt.Fprintf(os.Stderr, "  %-30s %-15s %12s -> %s\n", e.Name, m, was, ledger.Num(e.Metrics[m]))
		}
	}
	regs := ledger.Compare(cur, base)
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "besst-bench: REGRESSION: %s\n", r)
	}
	fmt.Fprintf(os.Stderr, "besst-bench: wrote %s; %d regressions vs %s\n", ledgerOut, len(regs), ledgerBaseline)
	return len(regs) == 0
}

// closeSession flushes the observability session (profiles, metrics).
func closeSession(ses *cli.Session) {
	if err := ses.Close(); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "besst-bench: "+format+"\n", args...)
	os.Exit(1)
}
