// Command besst-model fits performance models from a benchmarking-
// campaign CSV (produced by besst-bench) with either modeling method
// and reports per-op accuracy — the Model Development half of the
// BE-SST workflow as a standalone step.
//
//	besst-bench -o campaign.csv
//	besst-model -in campaign.csv -method symreg
//	besst-model -in campaign.csv -method interp -predict "epr=30,ranks=1331"
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"besst/internal/benchdata"
	"besst/internal/cli"
	"besst/internal/perfmodel"
	"besst/internal/workflow"
)

func main() {
	in := flag.String("in", "", "campaign CSV (required)")
	method := flag.String("method", "symreg", "modeling method: symreg | interp")
	vars := flag.String("vars", "epr,ranks", "model input variables, comma separated")
	predict := flag.String("predict", "", "optional prediction point, e.g. \"epr=30,ranks=1331\"")
	save := flag.String("save", "", "write the fitted model bundle as JSON to this path")
	common := cli.RegisterCommon(flag.CommandLine)
	flag.Parse()

	if *in == "" {
		fatalf("-in is required")
	}
	out := cli.NewPrinter(os.Stdout)
	ses, err := common.Begin("besst-model")
	if err != nil {
		fatalf("%v", err)
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		fatalf("open: %v", err)
	}
	campaign, err := benchdata.ReadCSV(bytes.NewReader(data))
	if err != nil {
		fatalf("parse: %v", err)
	}

	var m workflow.Method
	switch *method {
	case "symreg":
		m = workflow.SymbolicRegression
	case "interp":
		m = workflow.Interpolation
	default:
		fatalf("unknown method %q", *method)
	}
	varNames := strings.Split(*vars, ",")
	for i := range varNames {
		varNames[i] = strings.TrimSpace(varNames[i])
	}

	fitDone := ses.Phase("fit-models")
	models := workflow.Develop(campaign, m, varNames, common.Seed)
	fitDone()
	if common.JSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(models.Reports); err != nil {
			fatalf("encode reports: %v", err)
		}
	} else {
		out.Printf("fitted %d models with %s\n", len(models.Reports), m)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatalf("create %s: %v", *save, err)
		}
		if err := models.Save(f); err != nil {
			fatalf("save: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("close: %v", err)
		}
		out.Printf("saved model bundle to %s\n", *save)
	}
	if !common.JSON {
		for _, r := range models.Reports {
			out.Printf("  %-20s validation MAPE %6.2f%%", r.Op, r.ValidationMAPE)
			if r.Expression != "" {
				out.Printf("  train %5.2f%% test %5.2f%%\n    %s\n", r.TrainMAPE, r.TestMAPE, r.Expression)
			} else {
				out.Println()
			}
		}
	}

	if *predict != "" {
		p := perfmodel.Params{}
		for _, kv := range strings.Split(*predict, ",") {
			parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
			if len(parts) != 2 {
				fatalf("bad -predict entry %q", kv)
			}
			v, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				fatalf("bad -predict value %q: %v", parts[1], err)
			}
			p[parts[0]] = v
		}
		out.Printf("predictions at %s:\n", p.Key())
		for _, op := range campaign.Ops() {
			out.Printf("  %-20s %.6g s\n", op, models.ByOp[op].Predict(p))
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
	fmt.Fprintf(os.Stderr, "besst-model: "+format+"\n", args...)
	os.Exit(1)
}
