package machine

import (
	"strings"
	"testing"

	"besst/internal/topo"
)

func TestQuartzDescription(t *testing.T) {
	q := Quartz()
	if q.Nodes != 2988 {
		t.Fatalf("nodes = %d", q.Nodes)
	}
	if q.CoresPerNode != 36 {
		t.Fatalf("cores per node = %d", q.CoresPerNode)
	}
	if q.MemPerNode != 128<<30 {
		t.Fatalf("mem per node = %d", q.MemPerNode)
	}
	if q.TotalCores() != 2988*36 {
		t.Fatalf("total cores = %d", q.TotalCores())
	}
	if _, ok := q.Topology.(*topo.FatTree); !ok {
		t.Fatalf("quartz topology %T, want fat tree", q.Topology)
	}
	if topo.MaxHops(q.Topology) != 4 {
		t.Fatalf("two-stage fat tree diameter = %d, want 4", topo.MaxHops(q.Topology))
	}
}

func TestVulcanDescription(t *testing.T) {
	v := Vulcan()
	if v.Nodes != 24576 {
		t.Fatalf("nodes = %d", v.Nodes)
	}
	if v.Topology.Nodes() != 24576 {
		t.Fatalf("topology nodes = %d", v.Topology.Nodes())
	}
	if _, ok := v.Topology.(*topo.Torus); !ok {
		t.Fatalf("vulcan topology %T, want torus", v.Topology)
	}
}

func TestNetworkModelConstruction(t *testing.T) {
	q := Quartz()
	nm := q.Network()
	if nm.PointToPoint(0, 1, 1<<20) <= 0 {
		t.Fatal("network model unusable")
	}
}

func TestNodeOfRank(t *testing.T) {
	q := Quartz()
	if q.NodeOfRank(0, 2) != 0 || q.NodeOfRank(1, 2) != 0 || q.NodeOfRank(2, 2) != 1 {
		t.Fatal("block placement wrong")
	}
}

func TestNodeOfRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quartz().NodeOfRank(3, 0)
}

func TestNotionalGrowsFatTree(t *testing.T) {
	q := Quartz()
	n := Notional(q, 10000, 256<<30)
	if n.Nodes != 10000 {
		t.Fatalf("nodes = %d", n.Nodes)
	}
	if n.MemPerNode != 256<<30 {
		t.Fatalf("mem = %d", n.MemPerNode)
	}
	if n.Topology.Nodes() < 10000 {
		t.Fatalf("topology too small: %d", n.Topology.Nodes())
	}
	if !strings.Contains(n.Name, "notional") {
		t.Fatalf("name %q", n.Name)
	}
	// Base machine untouched.
	if q.Nodes != 2988 {
		t.Fatal("Notional mutated its base")
	}
}

func TestNotionalGrowsTorus(t *testing.T) {
	v := Vulcan()
	n := Notional(v, 60000, 0)
	if n.Topology.Nodes() < 60000 {
		t.Fatalf("torus too small: %d", n.Topology.Nodes())
	}
	if n.MemPerNode != v.MemPerNode {
		t.Fatal("memPerNode<=0 should keep base memory")
	}
}

func TestNotionalKeepsNetworkParams(t *testing.T) {
	q := Quartz()
	n := Notional(q, 5000, 0)
	if n.Net != q.Net {
		t.Fatal("network params should carry over")
	}
}

func TestValidateCatchesBadMachine(t *testing.T) {
	m := Quartz()
	m.CoreGFLOPS = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Validate()
}

func TestNotionalPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Notional(Quartz(), -1, 0)
}

// TestDiameterMatchesMaxHops pins every machine builder's topology
// diameter to a MaxHops scan of the same topology, so the collective
// costs the network model derives from Diameter (and every figure built
// on them) match the scanned value.
func TestDiameterMatchesMaxHops(t *testing.T) {
	q, v := Quartz(), Vulcan()
	machines := []*Machine{
		q, v,
		Notional(q, 1, 0), Notional(q, 20, 0), Notional(q, 5000, 0), Notional(q, 65536, 0),
		Notional(v, 30000, 0), Notional(v, 65536, 0),
	}
	for _, m := range machines {
		if got, want := m.Topology.Diameter(), topo.MaxHops(m.Topology); got != want {
			t.Errorf("%s (%s): Diameter = %d, MaxHops = %d", m.Name, m.Topology.Name(), got, want)
		}
	}
}
