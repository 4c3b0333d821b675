package besst_test

import (
	"sync/atomic"
	"testing"

	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/dse"
	"besst/internal/fti"
	"besst/internal/lulesh"
	"besst/internal/machine"
	"besst/internal/perfmodel"
	"besst/internal/topo"
	"besst/internal/workflow"
)

// countingTopo counts the Hops calls made through it.
type countingTopo struct {
	topo.Topology
	hops atomic.Int64
}

func (c *countingTopo) Hops(a, b int) int {
	c.hops.Add(1)
	return c.Topology.Hops(a, b)
}

// TestCompileDoesNotScanTopology guards the per-design-point cost of a
// DSE sweep: collective costs read the topology's Diameter, so neither
// Compile nor a whole EvalPoint may walk node pairs. A MaxHops scan on
// Quartz is about 63k Hops calls per compile.
func TestCompileDoesNotScanTopology(t *testing.T) {
	m := *machine.Quartz()
	ct := &countingTopo{Topology: m.Topology}
	m.Topology = ct

	models := &workflow.Models{ByOp: map[string]perfmodel.Model{
		lulesh.OpTimestep: perfmodel.Constant{Label: "ts", Seconds: 0.01},
		lulesh.OpCkptL1:   perfmodel.Constant{Label: "l1", Seconds: 0.2},
		lulesh.OpCkptL2:   perfmodel.Constant{Label: "l2", Seconds: 0.5},
	}}
	arch := beo.NewArchBEO(&m, 2)
	workflow.BindLulesh(arch, models)
	app := lulesh.App(10, 64, 20, lulesh.ScenarioL1L2, fti.Config{GroupSize: 4, NodeSize: 2})
	besst.Compile(app, arch)
	besst.Compile(app, arch)

	sweep := dse.PrepareSweep(models, &m, 2, dse.SweepConfig{
		EPRs:      []int{10},
		Ranks:     []int{64},
		Scenarios: []lulesh.Scenario{lulesh.ScenarioNoFT, lulesh.ScenarioL1L2},
		Timesteps: 20,
		MCRuns:    2,
		Seed:      1,
	})
	if mean := sweep.EvalPoint(sweep.NumPoints() - 1); mean <= 0 {
		t.Fatalf("EvalPoint mean = %v, want a positive makespan", mean)
	}
	if n := ct.hops.Load(); n != 0 {
		t.Fatalf("Compile and EvalPoint made %d Hops calls, want 0", n)
	}

	// The wrapper does see a scan.
	topo.MaxHops(ct)
	if ct.hops.Load() == 0 {
		t.Fatal("countingTopo missed the Hops calls of a MaxHops scan")
	}
}
