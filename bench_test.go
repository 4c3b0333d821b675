// Package bench is the benchmark harness regenerating every table and
// figure of the paper (one testing.B benchmark per experiment) plus the
// ablation benches DESIGN.md calls out. Each benchmark reports the
// experiment's headline metrics via b.ReportMetric — MAPE values next
// to the paper's published numbers, overhead percentages, speedups —
// so `go test -bench=.` reproduces the evaluation in one run.
//
// Experiments use reduced Monte Carlo counts to keep the harness fast;
// cmd/besst-exp runs them at full fidelity.
package bench

import (
	"sync"
	"testing"

	"besst/internal/benchdata"
	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/dse"
	"besst/internal/erasure"
	"besst/internal/exp"
	"besst/internal/fti"
	"besst/internal/groundtruth"
	"besst/internal/ledger"
	"besst/internal/lulesh"
	"besst/internal/netsim"
	"besst/internal/network"
	"besst/internal/obs"
	"besst/internal/stats"
	"besst/internal/topo"
	"besst/internal/workflow"
)

var (
	ctxOnce sync.Once
	ctx     *exp.Context
)

// sharedCtx develops the case-study models once for all benchmarks.
func sharedCtx(b *testing.B) *exp.Context {
	b.Helper()
	ctxOnce.Do(func() {
		ctx = exp.NewContext(8, 42)
	})
	return ctx
}

// BenchmarkTable1FTILevels regenerates Table I (level semantics) — the
// measured work is the per-level recoverability evaluation across
// representative failure sets, including the L3 Reed-Solomon group
// threshold.
func BenchmarkTable1FTILevels(b *testing.B) {
	cfg := groundtruth.NewQuartz().Cost.Config
	sets := [][]fti.Failure{
		{{Node: 0, Kind: fti.SoftFailure}},
		{{Node: 0, Kind: fti.HardFailure}},
		{{Node: 0, Kind: fti.HardFailure}, {Node: 1, Kind: fti.HardFailure}},
		{{Node: 0, Kind: fti.HardFailure}, {Node: 1, Kind: fti.HardFailure}, {Node: 2, Kind: fti.HardFailure}},
	}
	recoverable := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recoverable = 0
		for l := fti.L1; l <= fti.L4; l++ {
			for _, fs := range sets {
				if cfg.Recoverable(l, fs) {
					recoverable++
				}
			}
		}
	}
	b.ReportMetric(float64(recoverable), "recoverable-cases")
}

// BenchmarkTable3InstanceMAPE regenerates Table III: instance-model
// validation MAPE per kernel.
func BenchmarkTable3InstanceMAPE(b *testing.B) {
	c := sharedCtx(b)
	var rows []exp.Table3Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = exp.Table3(c)
	}
	b.ReportMetric(rows[0].MAPE, "timestepMAPE%")
	b.ReportMetric(rows[1].MAPE, "ckptL1MAPE%")
	b.ReportMetric(rows[2].MAPE, "ckptL2MAPE%")
	b.ReportMetric(rows[0].PaperMAPE, "paper-timestepMAPE%")
}

// BenchmarkTable4SystemMAPE regenerates Table IV: full-system MAPE for
// the three fault-tolerance scenarios over the Table II grid.
func BenchmarkTable4SystemMAPE(b *testing.B) {
	c := sharedCtx(b)
	var rows []exp.Table4Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = exp.Table4(c, 60, 2)
	}
	b.ReportMetric(rows[0].MAPE, "noftMAPE%")
	b.ReportMetric(rows[1].MAPE, "l1MAPE%")
	b.ReportMetric(rows[2].MAPE, "l1l2MAPE%")
}

// BenchmarkFig1Vulcan regenerates Fig 1: CMT-bone on Vulcan, validation
// to 131072 ranks and prediction to 1M ranks.
func BenchmarkFig1Vulcan(b *testing.B) {
	var r *exp.Fig1Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r = exp.Fig1(5, 3, 7)
	}
	b.ReportMetric(r.TimestepModelMAPE, "modelMAPE%")
	b.ReportMetric(float64(len(r.Points)), "points")
}

// BenchmarkFig5ModelsVsEPR regenerates Fig 5: model validation against
// problem size with the epr-30 prediction region.
func BenchmarkFig5ModelsVsEPR(b *testing.B) {
	c := sharedCtx(b)
	var pts []exp.ValidationPoint
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = exp.Fig5(c)
	}
	b.ReportMetric(float64(len(pts)), "points")
}

// BenchmarkFig6ModelsVsRanks regenerates Fig 6: model validation
// against rank count with the 1331-rank prediction region.
func BenchmarkFig6ModelsVsRanks(b *testing.B) {
	c := sharedCtx(b)
	var pts []exp.ValidationPoint
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = exp.Fig6(c)
	}
	b.ReportMetric(float64(len(pts)), "points")
}

// BenchmarkFig7FullRun64 regenerates Fig 7: 200-timestep full runs at
// 64 ranks in DES mode for the three scenarios.
func BenchmarkFig7FullRun64(b *testing.B) {
	c := sharedCtx(b)
	var series []exp.FullRunSeries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series = exp.FigFullRun(c, 10, 64, 200, 2, besst.DES)
	}
	b.ReportMetric(series[0].MAPE, "noftMAPE%")
	b.ReportMetric(series[1].MAPE, "l1MAPE%")
	b.ReportMetric(series[2].MAPE, "l1l2MAPE%")
}

// BenchmarkFig8FullRun1000 regenerates Fig 8: the same at 1000 ranks
// (direct mode keeps the harness fast; cmd/besst-exp uses DES).
func BenchmarkFig8FullRun1000(b *testing.B) {
	c := sharedCtx(b)
	var series []exp.FullRunSeries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series = exp.FigFullRun(c, 10, 1000, 200, 2, besst.Direct)
	}
	b.ReportMetric(series[0].MAPE, "noftMAPE%")
	b.ReportMetric(series[2].MAPE, "l1l2MAPE%")
}

// BenchmarkFig9Overhead regenerates Fig 9: the overhead-prediction
// tables at 64 and 1000 ranks.
func BenchmarkFig9Overhead(b *testing.B) {
	c := sharedCtx(b)
	var cells []dse.Cell
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells = exp.Fig9(c, 60, 2)
	}
	var worst float64
	for _, cell := range cells {
		if cell.OverheadPct > worst {
			worst = cell.OverheadPct
		}
	}
	b.ReportMetric(worst, "worstOverhead%")
}

// BenchmarkExtFaultInjection regenerates the fault-injection extension
// (Fig 4 Cases 1-4).
func BenchmarkExtFaultInjection(b *testing.B) {
	c := sharedCtx(b)
	var rows []exp.FaultCase
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = exp.FaultStudy(c, 25, 64, 600000, 5, 5)
	}
	b.ReportMetric(rows[1].MeanWall/rows[0].MeanWall, "case2-slowdown")
	b.ReportMetric(rows[3].MeanWall/rows[0].MeanWall, "case4-slowdown")
}

// BenchmarkExtAnalyticBaselines regenerates the analytic-baseline
// comparison from the related-work section.
func BenchmarkExtAnalyticBaselines(b *testing.B) {
	c := sharedCtx(b)
	var rows []exp.AnalyticRow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = exp.AnalyticStudy(c, 1e-5, []int{64, 4096, 262144, 1 << 20})
	}
	b.ReportMetric(rows[len(rows)-1].Cavelan, "cavelan@1M")
	b.ReportMetric(rows[len(rows)-1].HussainRepl, "hussain@1M")
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationModelingMethod compares the two Model Development
// methods on the same campaign: interpolation tables vs symbolic
// regression (fit cost here; accuracy reported as metrics).
func BenchmarkAblationModelingMethod(b *testing.B) {
	em := groundtruth.NewQuartz()
	campaign := benchdata.CollectLulesh(em, benchdata.CaseStudyPlan(6, 1))
	b.Run("interpolation", func(b *testing.B) {
		b.ReportAllocs()
		var m *workflow.Models
		for i := 0; i < b.N; i++ {
			m = workflow.Develop(campaign, workflow.Interpolation, []string{"epr", "ranks"}, 2)
		}
		b.ReportMetric(m.Report(lulesh.OpTimestep).ValidationMAPE, "timestepMAPE%")
	})
	b.Run("symreg", func(b *testing.B) {
		b.ReportAllocs()
		var m *workflow.Models
		for i := 0; i < b.N; i++ {
			m = workflow.Develop(campaign, workflow.SymbolicRegression, []string{"epr", "ranks"}, 2)
		}
		b.ReportMetric(m.Report(lulesh.OpTimestep).ValidationMAPE, "timestepMAPE%")
	})
}

// BenchmarkAblationDESvsDirect compares the two execution modes on an
// identical deterministic workload (they produce identical makespans;
// the ablation is the cost of event-level fidelity).
func BenchmarkAblationDESvsDirect(b *testing.B) {
	c := sharedCtx(b)
	cfg := c.Quartz.Cost.Config
	app := lulesh.App(10, 64, 200, lulesh.ScenarioL1, cfg)
	arch := beo.NewArchBEO(c.Quartz.M, cfg.NodeSize)
	workflow.BindLulesh(arch, c.Models)
	for _, mode := range []struct {
		name string
		m    besst.Mode
	}{{"des", besst.DES}, {"direct", besst.Direct}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var r *besst.Result
			for i := 0; i < b.N; i++ {
				r = besst.Run(app, arch, besst.WithMode(mode.m))
			}
			b.ReportMetric(r.Makespan, "makespan-s")
		})
	}
}

// BenchmarkLedger times every timing entry of the benchmark ledger, the
// same bodies `besst-bench -ledger` gates against the committed
// baseline.
func BenchmarkLedger(b *testing.B) {
	for _, e := range ledger.Registry {
		if e.Bench != nil {
			b.Run(e.Name, e.Bench)
		}
	}
}

// BenchmarkAblationContention compares the network model with and
// without link-level contention accounting.
func BenchmarkAblationContention(b *testing.B) {
	m := network.New(topo.NewFatTree(32, 32, 8), network.Params{
		InjectionOverhead: 1.2e-6, HopLatency: 110e-9,
		LinkBandwidth: 12.5e9, EagerLimit: 8192,
	})
	flows := make([]network.Flow, 64)
	for i := range flows {
		flows[i] = network.Flow{Src: i, Dst: (i + 512) % 1024, Bytes: 1 << 20}
	}
	b.Run("independent", func(b *testing.B) {
		b.ReportAllocs()
		var t float64
		for i := 0; i < b.N; i++ {
			t = 0
			for _, f := range flows {
				if v := m.PointToPoint(f.Src, f.Dst, f.Bytes); v > t {
					t = v
				}
			}
		}
		b.ReportMetric(t*1e6, "slowest-us")
	})
	b.Run("contended", func(b *testing.B) {
		b.ReportAllocs()
		var t float64
		for i := 0; i < b.N; i++ {
			t = m.Congested(flows)
		}
		b.ReportMetric(t*1e6, "slowest-us")
	})
}

// BenchmarkAblationMonteCarloCount measures prediction variance against
// the Monte Carlo replication count.
func BenchmarkAblationMonteCarloCount(b *testing.B) {
	c := sharedCtx(b)
	cfg := c.Quartz.Cost.Config
	app := lulesh.App(10, 64, 100, lulesh.ScenarioL1, cfg)
	arch := beo.NewArchBEO(c.Quartz.M, cfg.NodeSize)
	workflow.BindLulesh(arch, c.Models)
	for _, n := range []int{4, 16, 64} {
		n := n
		b.Run(map[int]string{4: "mc-4", 16: "mc-16", 64: "mc-64"}[n], func(b *testing.B) {
			b.ReportAllocs()
			var s stats.Summary
			for i := 0; i < b.N; i++ {
				runs := besst.Replicate(app, arch, n,
					besst.WithMode(besst.Direct),
					besst.WithPerRankNoise(true),
					besst.WithSeed(uint64(i)))
				s = stats.Summarize(besst.Makespans(runs))
			}
			b.ReportMetric(100*s.Std/s.Mean, "relStd%")
		})
	}
}

// BenchmarkAblationRSGroupSize measures Reed-Solomon encode throughput
// (the FTI L3 compute cost) across group sizes.
func BenchmarkAblationRSGroupSize(b *testing.B) {
	const shard = 1 << 18
	for _, g := range []int{4, 8, 16} {
		g := g
		b.Run(map[int]string{4: "group-4", 8: "group-8", 16: "group-16"}[g], func(b *testing.B) {
			k := g - g/2
			coder := erasure.NewCoder(k, g/2)
			data := make([][]byte, k)
			for i := range data {
				data[i] = make([]byte, shard)
				for j := range data[i] {
					data[i][j] = byte(i + j)
				}
			}
			b.SetBytes(int64(k * shard))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coder.Encode(data)
			}
		})
	}
}

// BenchmarkAblationDalyVsFixedPeriod compares a fixed 40-step
// checkpoint period (the paper's case study) against the Daly-optimal
// period under fault injection.
func BenchmarkAblationDalyVsFixedPeriod(b *testing.B) {
	c := sharedCtx(b)
	var rows []exp.FaultCase
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows = exp.FaultStudy(c, 25, 64, 600000, 5, 5)
	}
	fixed := rows[3].MeanWall // Case 4: L1&L2 every 40 steps
	daly := rows[4].MeanWall  // Case 4b: L2 at the Daly period
	b.ReportMetric(fixed/daly, "fixed/daly")
}

// BenchmarkExtAllLevels regenerates the all-four-FTI-levels extension
// study (the paper's future-work item: L3/L4 need the communication and
// PFS models this reproduction includes).
func BenchmarkExtAllLevels(b *testing.B) {
	c := sharedCtx(b)
	var rows []exp.LevelRow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = exp.AllLevelsStudy(c)
	}
	b.ReportMetric(rows[3].AmortizedOverheadPct, "l4AmortOvhd%")
}

// BenchmarkExtOptimalLevel regenerates the optimal-FT-level-vs-failure-
// rate extension study: the cost/benefit balance the paper's
// introduction motivates.
func BenchmarkExtOptimalLevel(b *testing.B) {
	c := sharedCtx(b)
	var rows []exp.OptLevelRow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = exp.OptimalLevelStudy(c, 25, 1000, 100000, 4, []float64{2000, 20})
	}
	b.ReportMetric(float64(rows[1].Best), "bestLevel@20h")
}

// BenchmarkAblationAnalyticVsFlowLevel compares the two network-model
// tiers on the same traffic: the coarse analytic bound (package
// network) vs flow-level max-min simulation (package netsim) — the
// "hand the flagged region to a finer-grained simulator" move of the
// paper's pruning workflow.
func BenchmarkAblationAnalyticVsFlowLevel(b *testing.B) {
	ft := topo.NewFatTree(16, 16, 8)
	params := network.Params{
		InjectionOverhead: 0, HopLatency: 0,
		LinkBandwidth: 12.5e9, EagerLimit: 0,
	}
	analytic := network.New(ft, params)
	const n = 128
	aflows := make([]network.Flow, n)
	sflows := make([]netsim.Flow, n)
	for i := 0; i < n; i++ {
		src, dst := i%ft.Nodes(), (i*7+64)%ft.Nodes()
		if dst == src {
			dst = (dst + 1) % ft.Nodes()
		}
		aflows[i] = network.Flow{Src: src, Dst: dst, Bytes: 4 << 20}
		sflows[i] = netsim.Flow{Src: src, Dst: dst, Bytes: 4 << 20}
	}
	b.Run("analytic", func(b *testing.B) {
		b.ReportAllocs()
		var v float64
		for i := 0; i < b.N; i++ {
			v = analytic.Congested(aflows)
		}
		b.ReportMetric(v*1e3, "makespan-ms")
	})
	b.Run("flow-level", func(b *testing.B) {
		b.ReportAllocs()
		var v float64
		for i := 0; i < b.N; i++ {
			v = netsim.Makespan(netsim.Simulate(ft, netsim.Config{LinkBandwidth: 12.5e9}, sflows))
		}
		b.ReportMetric(v*1e3, "makespan-ms")
	})
}

// BenchmarkExtAlgorithmicDSE regenerates the alternate-algorithm DSE
// extension (C/R vs ABFT crossover).
func BenchmarkExtAlgorithmicDSE(b *testing.B) {
	c := sharedCtx(b)
	var rows []exp.AlgDSERow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = exp.AlgorithmicDSE(c, 40)
	}
	abftWins := 0
	for _, r := range rows {
		if r.Winner == "ABFT" {
			abftWins++
		}
	}
	b.ReportMetric(float64(abftWins), "abftWins")
}

// BenchmarkTracingOverhead measures the observability hooks on the DES
// engine path: "off" is the nil-guarded default (the <2% overhead
// gate), "recording" runs the same replication with a TraceBuffer and
// Collector teed onto every engine.
func BenchmarkTracingOverhead(b *testing.B) {
	c := sharedCtx(b)
	cfg := c.Quartz.Cost.Config
	app := lulesh.App(10, 64, 40, lulesh.ScenarioL1L2, cfg)
	arch := beo.NewArchBEO(c.Quartz.M, cfg.NodeSize)
	workflow.BindLulesh(arch, c.Models)
	cr := besst.Compile(app, arch)
	opts := []besst.Option{
		besst.WithMode(besst.DES), besst.WithPerRankNoise(true),
		besst.WithSeed(42), besst.WithConcurrency(1),
	}
	const mcN = 4
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cr.Replicate(mcN, opts...)
		}
	})
	b.Run("recording", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			col := obs.NewCollector()
			tracedOpts := append(opts[:len(opts):len(opts)],
				besst.WithTracer(obs.NewTraceBuffer(obs.DefaultTraceCap)),
				besst.WithCollector(col))
			cr.Replicate(mcN, tracedOpts...)
		}
	})
}

// BenchmarkExtArchitecturalDSE regenerates the hardware-variant DSE
// extension (Co-Design architectural axis).
func BenchmarkExtArchitecturalDSE(b *testing.B) {
	c := sharedCtx(b)
	var rows []exp.ArchDSERow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = exp.ArchitecturalDSE(c)
	}
	b.ReportMetric(rows[0].L1OverheadPct, "baseL1Ovhd%")
}
