package benchdata

import (
	"bytes"
	"testing"

	"besst/internal/fti"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/perfmodel"
)

func smallPlan() LuleshPlan {
	return LuleshPlan{
		EPRs:       []int{5, 10},
		Ranks:      []int{8, 64},
		Levels:     []fti.Level{fti.L1},
		SamplesPer: 3,
		Seed:       1,
	}
}

func TestCollectLuleshShape(t *testing.T) {
	c := CollectLulesh(groundtruth.NewQuartz(), smallPlan())
	// 2 eprs x 2 ranks x 3 samples x (timestep + L1).
	if len(c.Samples) != 2*2*3*2 {
		t.Fatalf("samples = %d", len(c.Samples))
	}
	ops := c.Ops()
	if len(ops) != 2 || ops[0] != lulesh.OpCkptL1 || ops[1] != lulesh.OpTimestep {
		t.Fatalf("ops = %v", ops)
	}
	if got := len(c.ForOp(lulesh.OpTimestep)); got != 12 {
		t.Fatalf("timestep samples = %d", got)
	}
}

func TestCollectDeterministicBySeed(t *testing.T) {
	a := CollectLulesh(groundtruth.NewQuartz(), smallPlan())
	b := CollectLulesh(groundtruth.NewQuartz(), smallPlan())
	for i := range a.Samples {
		if a.Samples[i].Seconds != b.Samples[i].Seconds {
			t.Fatal("campaign not reproducible")
		}
	}
}

func TestCaseStudyPlanMatchesTable2(t *testing.T) {
	p := CaseStudyPlan(10, 42)
	if len(p.EPRs) != 5 || p.EPRs[0] != 5 || p.EPRs[4] != 25 {
		t.Fatalf("eprs = %v", p.EPRs)
	}
	if len(p.Ranks) != 5 || p.Ranks[4] != 1000 {
		t.Fatalf("ranks = %v", p.Ranks)
	}
	if len(p.Levels) != 2 {
		t.Fatalf("levels = %v", p.Levels)
	}
}

func TestTableConstruction(t *testing.T) {
	c := CollectLulesh(groundtruth.NewQuartz(), smallPlan())
	tab := c.Table(lulesh.OpTimestep, "epr", "ranks")
	if tab.Points() != 4 {
		t.Fatalf("points = %d, want 4", tab.Points())
	}
	v := tab.Predict(perfmodel.Params{"epr": 5, "ranks": 8})
	if v <= 0 {
		t.Fatal("prediction not positive")
	}
}

func TestDatasetConstruction(t *testing.T) {
	c := CollectLulesh(groundtruth.NewQuartz(), smallPlan())
	ds := c.Dataset(lulesh.OpCkptL1, "epr", "ranks")
	if len(ds.Y) != 12 {
		t.Fatalf("rows = %d", len(ds.Y))
	}
	if len(ds.X[0]) != 2 {
		t.Fatalf("vars = %d", len(ds.X[0]))
	}
}

func TestTableMissingOpPanics(t *testing.T) {
	c := &Campaign{}
	c.Add("a", perfmodel.Params{"x": 1}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Table("missing", "x")
}

func TestCSVRoundTrip(t *testing.T) {
	c := CollectLulesh(groundtruth.NewQuartz(), smallPlan())
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != len(c.Samples) {
		t.Fatalf("rows %d != %d", len(back.Samples), len(c.Samples))
	}
	for i := range c.Samples {
		a, b := c.Samples[i], back.Samples[i]
		if a.Op != b.Op || a.Seconds != b.Seconds ||
			a.Params.Key() != b.Params.Key() {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("nope\n")); err == nil {
		t.Fatal("expected error for malformed header")
	}
	if _, err := ReadCSV(bytes.NewBufferString("op,x,seconds\na,notanumber,1\n")); err == nil {
		t.Fatal("expected error for bad float")
	}
}

func TestCollectCmtBone(t *testing.T) {
	c := CollectCmtBone(groundtruth.NewVulcan(), []int{16, 32}, []int{64, 512}, 2, 7)
	if len(c.Samples) != 8 {
		t.Fatalf("samples = %d", len(c.Samples))
	}
	ds := c.Dataset("cmtbone_timestep", "psize", "ranks")
	if len(ds.Y) != 8 {
		t.Fatal("dataset rows wrong")
	}
}

func TestCollectPanicsOnBadSamplesPer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CollectLulesh(groundtruth.NewQuartz(), LuleshPlan{EPRs: []int{5}, Ranks: []int{8}, SamplesPer: 0})
}
