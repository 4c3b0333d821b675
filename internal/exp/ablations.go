package exp

import (
	"io"
	"math"

	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/cli"
	"besst/internal/lulesh"
	"besst/internal/netsim"
	"besst/internal/network"
	"besst/internal/stats"
	"besst/internal/topo"
	"besst/internal/workflow"
)

// AblationResult holds the design-choice ablations DESIGN.md lists
// whose claim no other experiment or test checks.
type AblationResult struct {
	// Interp and Symreg are the two Model Development methods' models
	// of the same campaign; their reports carry the validation MAPEs.
	Interp, Symreg *workflow.Models
	// IndependentSec and ContendedSec are the slowest of the contention
	// flows priced one at a time and together under link sharing.
	IndependentSec, ContendedSec float64
	// AnalyticSec and FlowLevelSec are the network-tier flows' makespan
	// under the analytic contention bound and the flow-level simulator.
	AnalyticSec, FlowLevelSec float64
	// MonteCarlo summarizes the makespans at each replication count.
	MonteCarlo []stats.Summary
}

// RelSEPct is the relative standard error of a Monte Carlo mean in
// percent: the prediction variance at that replication count.
func RelSEPct(s stats.Summary) float64 {
	return 100 * s.Std / (s.Mean * math.Sqrt(float64(s.N)))
}

// Ablation workload sizes, printed with the results.
const (
	contentionFlows = 64
	tierFlows       = 128
	mcSteps         = 100
)

// Ablations runs the design-choice ablations: interpolation versus
// symbolic regression, the network model with and without link
// contention, the analytic network tier against flow-level simulation,
// and the Monte Carlo replication count against prediction variance.
func Ablations(ctx *Context) *AblationResult {
	// Interpolation tables are built from the same campaign the
	// symbolic-regression models were fitted on.
	out := &AblationResult{
		Interp: workflow.Develop(ctx.Campaign, workflow.Interpolation, []string{"epr", "ranks"}, ctx.Seed+1),
		Symreg: ctx.Models,
	}

	// Contention: 64 x 1 MiB flows, each crossing the spine.
	cm := network.New(topo.NewFatTree(32, 32, 8), network.Params{
		InjectionOverhead: 1.2e-6, HopLatency: 110e-9,
		LinkBandwidth: 12.5e9, EagerLimit: 8192,
	})
	flows := make([]network.Flow, contentionFlows)
	for i := range flows {
		flows[i] = network.Flow{Src: i, Dst: (i + 512) % 1024, Bytes: 1 << 20}
		out.IndependentSec = math.Max(out.IndependentSec, cm.PointToPoint(flows[i].Src, flows[i].Dst, flows[i].Bytes))
	}
	out.ContendedSec = cm.Congested(flows)

	// Network tier: pure bandwidth (no latency terms), so the two
	// tiers differ only in how they share links.
	ft := topo.NewFatTree(16, 16, 8)
	aflows := make([]network.Flow, tierFlows)
	sflows := make([]netsim.Flow, tierFlows)
	for i := range aflows {
		src, dst := i%ft.Nodes(), (i*7+64)%ft.Nodes()
		if dst == src {
			dst = (dst + 1) % ft.Nodes()
		}
		aflows[i] = network.Flow{Src: src, Dst: dst, Bytes: 4 << 20}
		sflows[i] = netsim.Flow{Src: src, Dst: dst, Bytes: 4 << 20}
	}
	out.AnalyticSec = network.New(ft, network.Params{LinkBandwidth: 12.5e9}).Congested(aflows)
	out.FlowLevelSec = netsim.Makespan(netsim.Simulate(ft, netsim.Config{LinkBandwidth: 12.5e9}, sflows))

	// Monte Carlo count: one master seed for every n.
	cfg := ctx.Quartz.Cost.Config
	arch := beo.NewArchBEO(ctx.Quartz.M, cfg.NodeSize)
	workflow.BindLulesh(arch, ctx.Models)
	cr := besst.Compile(lulesh.App(10, 64, mcSteps, lulesh.ScenarioL1, cfg), arch)
	for _, n := range []int{4, 16, 64} {
		out.MonteCarlo = append(out.MonteCarlo, stats.Summarize(besst.Makespans(cr.Replicate(n,
			besst.WithMode(besst.Direct), besst.WithPerRankNoise(true), besst.WithSeed(ctx.Seed)))))
	}
	return out
}

// FormatAblations renders the ablation study.
func FormatAblations(w io.Writer, r *AblationResult) {
	out := cli.Wrap(w)
	out.Println("Ablations: design choices (DESIGN.md)")
	out.Println("  modeling method: validation MAPE on the Table II campaign")
	out.Printf("  %-18s %14s %10s\n", "op", "interpolation", "symreg")
	for _, m := range r.Symreg.Reports {
		out.Printf("  %-18s %13.2f%% %9.2f%%\n", m.Op, r.Interp.Report(m.Op).ValidationMAPE, m.ValidationMAPE)
	}
	out.Printf("  network contention: slowest of %d x 1 MiB flows, 1024-node fat tree\n", contentionFlows)
	out.Printf("  %-18s %11.2f us\n", "independent", 1e6*r.IndependentSec)
	out.Printf("  %-18s %11.2f us\n", "contended", 1e6*r.ContendedSec)
	out.Printf("  network tier: makespan of %d x 4 MiB flows, 256-node fat tree\n", tierFlows)
	out.Printf("  %-18s %11.4f ms\n", "analytic", 1e3*r.AnalyticSec)
	out.Printf("  %-18s %11.4f ms\n", "flow-level", 1e3*r.FlowLevelSec)
	out.Printf("  Monte Carlo count: LULESH epr 10, 64 ranks, %d steps, L1, Direct\n", mcSteps)
	out.Printf("  %6s %12s %10s %10s\n", "n", "mean s", "relStd", "relSE")
	for _, s := range r.MonteCarlo {
		out.Printf("  %6d %12.6g %9.3f%% %9.3f%%\n", s.N, s.Mean, 100*s.Std/s.Mean, RelSEPct(s))
	}
}
