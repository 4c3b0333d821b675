// Package exp regenerates every table and figure of the paper's
// evaluation, plus the extension experiments DESIGN.md commits to
// (fault injection — the paper's Cases 2 and 4 — and the analytic
// baselines of the related-work section) and the design-choice
// ablations. Each experiment returns structured results and has a
// Format function used by cmd/besst-exp; the per-experiment index lives
// in DESIGN.md and the measured-vs-paper record in EXPERIMENTS.md.
package exp

import (
	"besst/internal/benchdata"
	"besst/internal/groundtruth"
	"besst/internal/workflow"
)

// Context carries the shared state of the case-study experiments: the
// Quartz ground-truth emulator, the Table II benchmarking campaign, and
// the symbolic-regression models developed from it.
type Context struct {
	Quartz   *groundtruth.Emulator
	Models   *workflow.Models
	Campaign *benchdata.Campaign

	// SamplesPer is the number of benchmark repetitions per parameter
	// combination used for the campaign.
	SamplesPer int
	// Seed drives every random decision in the experiments.
	Seed uint64
}

// Table II parameter grid (the case study's design space).
var (
	CaseEPRs  = []int{5, 10, 15, 20, 25}
	CaseRanks = []int{8, 64, 216, 512, 1000}
)

// NewContext develops the case-study models. SamplesPer 10 matches the
// "multiple timing samples per combination" protocol; the seed pins the
// whole reproduction.
func NewContext(samplesPer int, seed uint64) *Context {
	em := groundtruth.NewQuartz()
	models, campaign := workflow.DevelopLuleshQuartz(em, samplesPer, workflow.SymbolicRegression, seed)
	return &Context{
		Quartz:     em,
		Models:     models,
		Campaign:   campaign,
		SamplesPer: samplesPer,
		Seed:       seed,
	}
}
