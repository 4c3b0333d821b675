// Command besst-sim runs one FT-aware full-system simulation: it
// develops models on the emulated Quartz (or loads a campaign CSV),
// builds the LULESH AppBEO for the requested scenario, and simulates it
// with BE-SST, reporting the Monte Carlo makespan distribution and
// checkpoint markers.
//
//	besst-sim -epr 10 -ranks 64 -steps 200 -scenario l1l2
//	besst-sim -epr 30 -ranks 1331 -scenario l1 -mode direct   # notional
//	besst-sim -mode des -trace results/trace.json -metrics results/
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"besst/internal/benchdata"
	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/cli"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/resilience"
	"besst/internal/serve"
	"besst/internal/stats"
	"besst/internal/workflow"
)

// jsonSummary is the -json output: the run's makespan distribution,
// breakdown, and checkpoint markers.
type jsonSummary struct {
	App     string `json:"app"`
	Machine string `json:"machine"`
	// Run is the canonical serialized run configuration (schema_version
	// 1) — the same besst.RunSpec the besst-serve HTTP API accepts, so a
	// CLI summary can be replayed as a service request verbatim.
	Run          besst.RunSpec   `json:"run"`
	Mode         string          `json:"mode"`
	Replications int             `json:"replications"`
	Makespan     stats.Summary   `json:"makespan"`
	EventsPerRun uint64          `json:"events_per_run,omitempty"`
	CkptTimes    []float64       `json:"ckpt_times,omitempty"`
	Breakdown    besst.Breakdown `json:"breakdown"`
}

func main() {
	epr := flag.Int("epr", 10, "problem size (elements per rank edge)")
	ranks := flag.Int("ranks", 64, "MPI ranks (perfect cube, multiple of 8)")
	steps := flag.Int("steps", 200, "timesteps")
	scenario := flag.String("scenario", "l1", "fault-tolerance scenario: noft | l1 | l1l2")
	period := flag.Int("period", 40, "checkpoint period in timesteps")
	mode := flag.String("mode", "des", "execution mode: des | direct")
	mc := flag.Int("mc", 10, "Monte Carlo replications")
	samples := flag.Int("samples", 10, "benchmark samples per combination for model development")
	campaignCSV := flag.String("campaign", "", "optional campaign CSV instead of fresh benchmarking")
	modelsPath := flag.String("models", "", "optional saved model bundle (besst-model -save) instead of fitting")
	appPath := flag.String("app", "", "optional AppBEO JSON spec to simulate instead of the LULESH builder")
	method := flag.String("method", "symreg", "modeling method: symreg | interp")
	common := cli.RegisterCommon(flag.CommandLine)
	common.RegisterCampaign(flag.CommandLine)
	distFlags := cli.RegisterDist(flag.CommandLine)
	flag.Parse()

	out := cli.NewPrinter(os.Stdout)
	// Progress lines move to stderr under -json so stdout stays one
	// parseable document.
	progress := out
	if common.JSON {
		progress = cli.NewPrinter(os.Stderr)
	}
	ses, err := common.Begin("besst-sim")
	if err != nil {
		fatalf("%v", err)
	}

	sc, err := lulesh.ParseScenario(*scenario)
	if err != nil {
		fatalf("%v", err)
	}
	for i := range sc.Schedules {
		sc.Schedules[i].Period = *period
	}

	m, err := besst.ParseMode(*mode)
	if err != nil {
		fatalf("%v", err)
	}

	wfMethod := workflow.SymbolicRegression
	if *method == "interp" {
		wfMethod = workflow.Interpolation
	} else if *method != "symreg" {
		fatalf("unknown method %q", *method)
	}

	// -dist: ship the configuration as a self-contained campaign
	// request to a besst-worker fleet and print the merged result
	// document — byte-identical to besst-serve's result for the same
	// request.
	if distFlags.Enabled() {
		if *campaignCSV != "" || *modelsPath != "" || *appPath != "" {
			fatalf("-dist builds a self-contained campaign request; -campaign, -models, and -app cannot combine with it")
		}
		req := serve.CampaignRequest{
			SchemaVersion: serve.RequestSchemaVersion,
			Kind:          serve.KindMonteCarlo,
			Trials:        *mc,
			// Workers stays 0: results are byte-identical for every
			// concurrency, so it must not enter the campaign identity.
			Run:   besst.RunSpec{SchemaVersion: 1, Mode: *mode, MonteCarlo: true, Seed: common.Seed, PerRankNoise: true},
			App:   &serve.AppSpec{EPR: *epr, Ranks: *ranks, Steps: *steps, Scenario: *scenario, Period: *period},
			Model: &serve.ModelSpec{Method: *method, Samples: *samples, Seed: common.Seed},
		}
		raw, err := json.Marshal(req)
		if err != nil {
			fatalf("marshal campaign request: %v", err)
		}
		doc, err := cli.RunDist(distFlags, cli.NewPrinter(os.Stderr), raw)
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
	devDone := ses.Phase("develop-models")
	var models *workflow.Models
	if *modelsPath != "" {
		data, err := os.ReadFile(*modelsPath)
		if err != nil {
			fatalf("open models: %v", err)
		}
		models, err = workflow.Load(bytes.NewReader(data))
		if err != nil {
			fatalf("load models: %v", err)
		}
		progress.Printf("loaded %d models from %s\n", len(models.ByOp), *modelsPath)
	} else if *campaignCSV != "" {
		data, err := os.ReadFile(*campaignCSV)
		if err != nil {
			fatalf("open campaign: %v", err)
		}
		campaign, err := benchdata.ReadCSV(bytes.NewReader(data))
		if err != nil {
			fatalf("parse campaign: %v", err)
		}
		models = workflow.Develop(campaign, wfMethod, []string{"epr", "ranks"}, common.Seed)
	} else {
		progress.Printf("benchmarking and developing models (%s, %d samples/combination)...\n", wfMethod, *samples)
		models, _ = workflow.DevelopLuleshQuartz(em, *samples, wfMethod, common.Seed)
	}
	devDone()

	cfg := em.Cost.Config
	var app *beo.AppBEO
	if *appPath != "" {
		data, err := os.ReadFile(*appPath)
		if err != nil {
			fatalf("read app spec: %v", err)
		}
		app = &beo.AppBEO{}
		if err := json.Unmarshal(data, app); err != nil {
			fatalf("parse app spec: %v", err)
		}
	} else {
		app = lulesh.App(*epr, *ranks, *steps, sc, cfg)
	}
	machine := em.M
	arch := beo.NewArchBEO(machine, cfg.NodeSize)
	workflow.BindLulesh(arch, models)
	if err := arch.Validate(app); err != nil {
		fatalf("%v", err)
	}

	progress.Printf("simulating %s on %s (%s mode, %d MC replications)\n",
		app.Name, machine.Name, *mode, *mc)
	simDone := ses.Phase("simulate")
	opts := append(ses.RunOptions(), besst.WithMode(m), besst.WithPerRankNoise(true))
	// Without -ckpt/-resume/-chaos the campaign keeps no journal and
	// injects nothing, so its results equal a plain besst.Replicate; a
	// panicking trial is quarantined, not fatal.
	cr, err := besst.CompileErr(app, arch)
	if err != nil {
		fatalf("%v", err)
	}
	hash := resilience.ConfigHash("besst-sim", app.Name, machine.Name, *mode, *mc,
		*epr, *ranks, *steps, *scenario, *period, common.Seed)
	all, rep, err := resilience.ReplicateResumable(cr, *mc, ses.Campaign(hash), opts...)
	if err != nil {
		fatalf("%v", err)
	}
	cli.ReportCampaign(progress, rep)
	var runs []*besst.Result
	for _, r := range all {
		if r != nil {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		fatalf("every replication was quarantined; no results")
	}
	simDone()

	s := stats.Summarize(besst.Makespans(runs))
	if common.JSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonSummary{
			App: app.Name, Machine: machine.Name, Mode: *mode,
			Run:          besst.NewRunConfig(append(opts, besst.WithMonteCarlo(true))...).Spec(),
			Replications: *mc, Makespan: s,
			EventsPerRun: runs[0].Events,
			CkptTimes:    runs[0].CkptTimes,
			Breakdown:    runs[0].Breakdown,
		}); err != nil {
			fatalf("encode summary: %v", err)
		}
	} else {
		out.Printf("makespan: mean %.4gs  std %.3gs  min %.4gs  max %.4gs  (n=%d)\n",
			s.Mean, s.Std, s.Min, s.Max, s.N)
		if len(runs[0].CkptTimes) > 0 {
			out.Printf("checkpoint instances (first run): %d, completing at:", len(runs[0].CkptTimes))
			for _, t := range runs[0].CkptTimes {
				out.Printf(" %.4g", t)
			}
			out.Println()
		}
		if runs[0].Events > 0 {
			out.Printf("discrete events processed per run: %d\n", runs[0].Events)
		}
		bd := runs[0].Breakdown
		if bd.Total() > 0 {
			out.Printf("time breakdown (rank 0): compute %.1f%%  comm %.1f%%  checkpoint %.1f%%\n",
				100*bd.ComputeSec/bd.Total(), 100*bd.CommSec/bd.Total(), 100*bd.CkptSec/bd.Total())
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
	fmt.Fprintf(os.Stderr, "besst-sim: "+format+"\n", args...)
	os.Exit(1)
}
