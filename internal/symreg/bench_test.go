package symreg_test

import (
	"testing"

	"besst/internal/benchdata"
	"besst/internal/groundtruth"
	"besst/internal/symreg"
)

var fitSink *symreg.Fitted

// BenchmarkFit develops the case study's three op models (LULESH
// timestep and FTI L1/L2 checkpoints over epr and ranks, 5 samples per
// configuration) the way workflow.Develop does: an 80/20 split and a
// default-options Fit per op.
func BenchmarkFit(b *testing.B) {
	c := benchdata.CollectLulesh(groundtruth.NewQuartz(), benchdata.CaseStudyPlan(5, 1))
	ops := c.Ops()
	var trains, tests []symreg.Dataset
	for i, op := range ops {
		train, test := c.Dataset(op, "epr", "ranks").Split(0.2, uint64(i))
		trains = append(trains, train)
		tests = append(tests, test)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, op := range ops {
			fitSink = symreg.Fit(op, trains[i], tests[i], symreg.Options{Seed: uint64(i)})
		}
	}
}
