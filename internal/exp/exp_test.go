package exp

import (
	"math"
	"strings"
	"sync"
	"testing"

	"besst/internal/besst"
	"besst/internal/dse"
	"besst/internal/fti"
	"besst/internal/lulesh"
)

var (
	tctxOnce sync.Once
	tctx     *Context
)

// testCtx builds a reduced-cost context shared by all exp tests.
func testCtx(t *testing.T) *Context {
	t.Helper()
	tctxOnce.Do(func() {
		tctx = NewContext(6, 42)
	})
	return tctx
}

func TestTable1Renders(t *testing.T) {
	var b strings.Builder
	Table1(&b)
	out := b.String()
	for _, want := range []string{"L1", "L2", "L3", "L4", "Reed-Solomon", "parity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
	// L1 must not recover hard failures; L4 recovers everything.
	if !strings.Contains(out, "soft=true  1 hard=false") {
		t.Fatalf("L1 semantics not shown:\n%s", out)
	}
}

func TestTable2Renders(t *testing.T) {
	var b strings.Builder
	Table2(&b)
	out := b.String()
	for _, want := range []string{"[5 10 15 20 25]", "[8 64 216 512 1000]", "Group Size"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Band(t *testing.T) {
	rows := Table3(testCtx(t))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	ts, l1, l2 := rows[0], rows[1], rows[2]
	if ts.MAPE > 12 {
		t.Fatalf("timestep MAPE %v out of band", ts.MAPE)
	}
	if l1.MAPE > 28 || l2.MAPE > 28 {
		t.Fatalf("checkpoint MAPE out of band: %v %v", l1.MAPE, l2.MAPE)
	}
	if ts.MAPE >= l1.MAPE || ts.MAPE >= l2.MAPE {
		t.Fatal("timestep error should be smallest (paper shape)")
	}
	if ts.PaperMAPE != 6.64 {
		t.Fatal("paper reference values lost")
	}
	var b strings.Builder
	FormatTable3(&b, rows)
	if !strings.Contains(b.String(), "LULESH Timestep") {
		t.Fatal("Table III rendering broken")
	}
}

func TestTable4Band(t *testing.T) {
	rows := Table4(testCtx(t), 60, 3)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.MAPE) || r.MAPE <= 0 || r.MAPE > 35 {
			t.Fatalf("system MAPE out of band: %+v", r)
		}
		if len(r.Points) != len(CaseEPRs)*len(CaseRanks) {
			t.Fatalf("grid incomplete: %d points", len(r.Points))
		}
	}
	var b strings.Builder
	FormatTable4(&b, rows)
	if !strings.Contains(b.String(), "Fault-Tolerance Level") {
		t.Fatal("Table IV rendering broken")
	}
}

func TestFig5PredictionRegion(t *testing.T) {
	pts := Fig5(testCtx(t))
	// 3 ops x 6 eprs x 5 rank counts.
	if len(pts) != 3*6*5 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.EPR == 30 {
			if !p.Prediction || !math.IsNaN(p.MeasuredMean) {
				t.Fatalf("epr 30 should be prediction-only: %+v", p)
			}
			if p.Modeled <= 0 {
				t.Fatalf("prediction not positive: %+v", p)
			}
		} else if p.Prediction {
			t.Fatalf("benchmarked point marked as prediction: %+v", p)
		}
	}
}

func TestFig5TrendsContinue(t *testing.T) {
	// The modeled curve must keep rising into the prediction region.
	pts := Fig5(testCtx(t))
	get := func(op string, epr int) float64 {
		for _, p := range pts {
			if p.Op == op && p.EPR == epr && p.Ranks == 1000 {
				return p.Modeled
			}
		}
		t.Fatalf("missing %s epr=%d", op, epr)
		return 0
	}
	for _, op := range []string{lulesh.OpTimestep, lulesh.OpCkptL1, lulesh.OpCkptL2} {
		if get(op, 30) <= get(op, 25) {
			t.Fatalf("%s prediction does not continue upward", op)
		}
	}
}

func TestFig6PredictionRegion(t *testing.T) {
	pts := Fig6(testCtx(t))
	if len(pts) != 3*5*6 {
		t.Fatalf("points = %d", len(pts))
	}
	sawPrediction := false
	for _, p := range pts {
		if p.Ranks == 1331 {
			sawPrediction = true
			if !p.Prediction {
				t.Fatalf("1331 ranks should be prediction-only: %+v", p)
			}
		}
	}
	if !sawPrediction {
		t.Fatal("no prediction points at 1331 ranks")
	}
}

func TestFigOrderingCkptAboveTimestep(t *testing.T) {
	// Figs 5-6 shape: checkpoint instances cost more than timesteps
	// across the grid, with L2 above L1.
	pts := Fig6(testCtx(t))
	byOp := map[string]map[int]float64{}
	for _, p := range pts {
		if p.EPR != 15 {
			continue
		}
		if byOp[p.Op] == nil {
			byOp[p.Op] = map[int]float64{}
		}
		byOp[p.Op][p.Ranks] = p.Modeled
	}
	l2AboveL1 := 0
	for _, ranks := range CaseRanks {
		ts := byOp[lulesh.OpTimestep][ranks]
		l1 := byOp[lulesh.OpCkptL1][ranks]
		l2 := byOp[lulesh.OpCkptL2][ranks]
		// Timesteps are far below checkpoints everywhere; L1 vs L2
		// ordering holds in the ground truth but the two fitted model
		// curves sit within each other's error band, so (like the
		// paper's "mostly ordered") require only majority ordering.
		if ts >= l1 || ts >= l2 {
			t.Fatalf("timestep above checkpoint at ranks=%d: %v %v %v", ranks, ts, l1, l2)
		}
		if l2 > l1 {
			l2AboveL1++
		}
	}
	if l2AboveL1 < (len(CaseRanks)+1)/2 {
		t.Fatalf("L2 above L1 at only %d of %d rank counts", l2AboveL1, len(CaseRanks))
	}
}

func TestFigFullRunSmall(t *testing.T) {
	series := FigFullRun(testCtx(t), 10, 64, 80, 3, besst.DES)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Measured) != 80 || len(s.Predicted) != 80 {
			t.Fatalf("series lengths wrong: %d %d", len(s.Measured), len(s.Predicted))
		}
		if s.MAPE > 35 {
			t.Fatalf("%s full-run MAPE %v out of band", s.Scenario, s.MAPE)
		}
	}
	// Scenario totals ordered: No FT < L1 < L1&L2.
	if !(series[0].Predicted[79] < series[1].Predicted[79] &&
		series[1].Predicted[79] < series[2].Predicted[79]) {
		t.Fatal("scenario ordering broken in predictions")
	}
	// Checkpoint markers: L1 scenario has 2 (steps 40, 80), L1&L2 has 4.
	if len(series[1].CkptTimes) != 2 || len(series[2].CkptTimes) != 4 {
		t.Fatalf("checkpoint markers wrong: %d %d", len(series[1].CkptTimes), len(series[2].CkptTimes))
	}
	var b strings.Builder
	FormatFullRun(&b, "Fig 7", series, 20)
	if !strings.Contains(b.String(), "checkpoints complete") {
		t.Fatal("rendering lost checkpoint markers")
	}
}

func TestFig9Shape(t *testing.T) {
	cells := Fig9(testCtx(t), 60, 3)
	if len(cells) != 4*2*3 {
		t.Fatalf("cells = %d", len(cells))
	}
	get := func(sc string, epr, ranks int) float64 {
		for _, c := range cells {
			if c.Scenario == sc && c.EPR == epr && c.Ranks == ranks {
				return c.OverheadPct
			}
		}
		t.Fatalf("missing %s %d %d", sc, epr, ranks)
		return 0
	}
	// Fig 9 shape: every scenario's overhead grows with ranks, FT
	// levels stack, and the most expensive cell sits in the
	// L1&L2/1000-rank row.
	var worst dse.Cell
	for _, c := range cells {
		if c.OverheadPct > worst.OverheadPct {
			worst = c
		}
	}
	if worst.Scenario != "L1 & L2" || worst.Ranks != 1000 {
		t.Fatalf("worst cell should be L1&L2 at 1000 ranks, got %+v", worst)
	}
	if !(get("No FT", 10, 64) < get("L1", 10, 64) && get("L1", 10, 64) < get("L1 & L2", 10, 64)) {
		t.Fatal("FT level stacking broken at 64 ranks")
	}
	if get("L1", 10, 1000) <= get("L1", 10, 64) {
		t.Fatal("L1 overhead should grow from 64 to 1000 ranks")
	}
	var b strings.Builder
	FormatFig9(&b, cells)
	if !strings.Contains(b.String(), "1000 Ranks") {
		t.Fatal("Fig 9 rendering broken")
	}
}

func TestFig1SmallScale(t *testing.T) {
	r := Fig1(5, 3, 7)
	if len(r.Points) != 3*8 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.TimestepModelMAPE <= 0 || r.TimestepModelMAPE > 15 {
		t.Fatalf("CMT-bone model MAPE %v out of band", r.TimestepModelMAPE)
	}
	for _, p := range r.Points {
		if p.SimMeanSec <= 0 {
			t.Fatalf("bad sim mean: %+v", p)
		}
		if p.Ranks > 131072 && !p.Prediction {
			t.Fatalf("mega-scale point should be prediction: %+v", p)
		}
		if !p.Prediction {
			// Validation points: sim within 50% of measured.
			if math.Abs(p.SimMeanSec-p.MeasuredSec)/p.MeasuredSec > 0.5 {
				t.Fatalf("validation point diverges: %+v", p)
			}
		}
	}
	if len(r.HistCounts) == 0 {
		t.Fatal("missing MC distribution pop-out")
	}
	var b strings.Builder
	FormatFig1(&b, r)
	if !strings.Contains(b.String(), "pop-out") {
		t.Fatal("Fig 1 rendering broken")
	}
}

func TestFaultStudyShape(t *testing.T) {
	// A long job (600k steps of epr-25 work, ~35 simulated minutes) on
	// nodes with a 5-hour MTBF: a few failures per run, with restart
	// cost well below the system MTBF so recovery converges.
	rows := FaultStudy(testCtx(t), 25, 64, 600000, 20, 5)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	case1, case2, case3, case4, case4b := rows[0], rows[1], rows[2], rows[3], rows[4]
	if case1.Faults != 0 || case3.Faults != 0 {
		t.Fatal("no-fault cases saw faults")
	}
	if case2.MeanWall <= case1.MeanWall {
		t.Fatal("faults should slow the no-FT run")
	}
	if case3.MeanWall <= case1.MeanWall {
		t.Fatal("FT overhead should cost something without faults")
	}
	if case4.MeanWall >= case2.MeanWall {
		t.Fatalf("FT should pay off under faults: %v vs %v", case4.MeanWall, case2.MeanWall)
	}
	if case4b.MeanWall >= case4.MeanWall {
		t.Fatalf("the Daly period should beat the fixed 40-step period: %v vs %v", case4b.MeanWall, case4.MeanWall)
	}
	var b strings.Builder
	FormatFaultStudy(&b, rows)
	if !strings.Contains(b.String(), "Case 4") {
		t.Fatal("fault study rendering broken")
	}
}

func TestAblationsShape(t *testing.T) {
	r := Ablations(testCtx(t))
	if r.ContendedSec < r.IndependentSec {
		t.Fatalf("contention made the slowest flow faster: %v < %v", r.ContendedSec, r.IndependentSec)
	}
	// Max-min sharing never finishes before the analytic bound; on
	// this traffic the two tie.
	if r.FlowLevelSec < r.AnalyticSec*(1-1e-9) {
		t.Fatalf("flow-level makespan %v below the analytic bound %v", r.FlowLevelSec, r.AnalyticSec)
	}
	if len(r.MonteCarlo) != 3 {
		t.Fatalf("Monte Carlo rows = %d", len(r.MonteCarlo))
	}
	if first, last := r.MonteCarlo[0], r.MonteCarlo[2]; RelSEPct(last) >= RelSEPct(first) {
		t.Fatalf("relative standard error at n=%d (%v%%) not below n=%d (%v%%)",
			last.N, RelSEPct(last), first.N, RelSEPct(first))
	}
	interp, symreg := r.Interp.Report(lulesh.OpTimestep).ValidationMAPE, r.Symreg.Report(lulesh.OpTimestep).ValidationMAPE
	if interp >= 20 || symreg >= 20 {
		t.Fatalf("timestep MAPE out of band: interpolation %v, symreg %v", interp, symreg)
	}
	var b strings.Builder
	FormatAblations(&b, r)
	if !strings.Contains(b.String(), "Ablations: design choices") {
		t.Fatal("ablation rendering broken")
	}
}

func TestAnalyticStudyShape(t *testing.T) {
	rows := AnalyticStudy(testCtx(t), 1e-5, []int{64, 1024, 65536, 1 << 20})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Cavelan >= r.Amdahl {
			t.Fatalf("faulty speedup should trail Amdahl at p=%d", r.P)
		}
		if r.ZhengGustaf < r.ZhengAmdahl {
			t.Fatalf("Gustafson should not trail Amdahl at p=%d", r.P)
		}
		if r.ZhengAmdahl > 0 && r.ZhengGustaf <= r.ZhengAmdahl {
			t.Fatalf("Gustafson should beat Amdahl when both positive at p=%d", r.P)
		}
	}
	var b strings.Builder
	FormatAnalyticStudy(&b, rows)
	if !strings.Contains(b.String(), "Hussain") {
		t.Fatal("analytic rendering broken")
	}
}

func TestValidationPointsRender(t *testing.T) {
	var b strings.Builder
	FormatValidationPoints(&b, "Fig 5", Fig5(testCtx(t)))
	out := b.String()
	if !strings.Contains(out, "prediction region") || !strings.Contains(out, lulesh.OpTimestep) {
		t.Fatal("Fig 5 rendering broken")
	}
}

func TestAllLevelsStudy(t *testing.T) {
	rows := AllLevelsStudy(testCtx(t))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Level != fti.Level(i+1) {
			t.Fatalf("row %d level %v", i, r.Level)
		}
		if r.ValidationMAPE <= 0 || r.ValidationMAPE > 30 {
			t.Fatalf("L%d MAPE %v out of band", int(r.Level), r.ValidationMAPE)
		}
		if r.InstanceSec1000 < r.InstanceSec64 {
			t.Fatalf("L%d instance should not shrink with ranks", int(r.Level))
		}
	}
	// At scale the level ordering holds strictly in the ground truth
	// (the Table I overhead progression)...
	em := testCtx(t).Quartz
	for l := fti.L2; l <= fti.L4; l++ {
		if em.CkptMean(l, 15, 1000) <= em.CkptMean(l-1, 15, 1000) {
			t.Fatalf("ground-truth level ordering broken at L%d", int(l))
		}
	}
	// ...while the fitted model curves may blur adjacent levels by
	// their error band; require ordering within 15% tolerance.
	for i := 1; i < 4; i++ {
		if rows[i].InstanceSec1000 < 0.85*rows[i-1].InstanceSec1000 {
			t.Fatalf("modeled level ordering broken at 1000 ranks: L%d %v << L%d %v",
				i+1, rows[i].InstanceSec1000, i, rows[i-1].InstanceSec1000)
		}
	}
	var b strings.Builder
	FormatAllLevels(&b, rows)
	if !strings.Contains(b.String(), "Extension C") {
		t.Fatal("rendering broken")
	}
}

func TestOptimalLevelStudy(t *testing.T) {
	rows := OptimalLevelStudy(testCtx(t), 25, 1000, 100000, 6,
		[]float64{2000, 20})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Reliable machine: fault tolerance is pure overhead, no FT wins.
	if rows[0].Best != 0 {
		t.Fatalf("no FT should win at 2000h MTBF, got L%d", rows[0].Best)
	}
	// Failure-prone machine: some FT level must beat no FT.
	if rows[1].Best == 0 {
		t.Fatal("an FT level should win at 20h MTBF")
	}
	if rows[1].WallByLevel[rows[1].Best] >= rows[1].WallByLevel[0] {
		t.Fatal("best level should beat no FT at high fault rate")
	}
	var b strings.Builder
	FormatOptimalLevel(&b, rows)
	if !strings.Contains(b.String(), "Extension D") {
		t.Fatal("rendering broken")
	}
}

func TestAlgorithmicDSECrossover(t *testing.T) {
	rows := AlgorithmicDSE(testCtx(t), 40)
	if len(rows) != len(CaseEPRs)*len(CaseRanks) {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(epr, ranks int) AlgDSERow {
		for _, r := range rows {
			if r.EPR == epr && r.Ranks == ranks {
				return r
			}
		}
		t.Fatalf("missing %d/%d", epr, ranks)
		return AlgDSERow{}
	}
	// The crossover structure: at 1000 ranks ABFT must win (C/R's
	// checkpoint cost scales with ranks, ABFT's overhead does not)...
	for _, epr := range CaseEPRs {
		if r := get(epr, 1000); r.Winner != "ABFT" {
			t.Fatalf("ABFT should win at 1000 ranks, epr %d: %+v", epr, r)
		}
	}
	// ...and C/R must win somewhere (otherwise there is no trade-off
	// to explore). The paper's DSE value proposition depends on both
	// regions existing.
	crWins := 0
	for _, r := range rows {
		if r.Winner == "C/R" {
			crWins++
		}
		if r.CRSec <= 0 || r.ABFTSec <= 0 {
			t.Fatalf("non-positive cost: %+v", r)
		}
	}
	if crWins == 0 {
		t.Fatal("C/R never wins; crossover lost")
	}
	var b strings.Builder
	FormatAlgDSE(&b, rows, 40)
	if !strings.Contains(b.String(), "ABFT") {
		t.Fatal("rendering broken")
	}
}

func TestArchitecturalDSE(t *testing.T) {
	rows := ArchitecturalDSE(testCtx(t))
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	base := rows[0]
	byName := map[string]ArchDSERow{}
	for _, r := range rows {
		byName[r.Variant] = r
		if r.L1Sec <= 0 || r.L2Sec <= 0 || r.L4Sec <= 0 {
			t.Fatalf("non-positive instance: %+v", r)
		}
	}
	// Faster local storage must cheapen L1/L2 but leave L4's PFS term.
	fast := byName["2x local storage BW"]
	if fast.L1Sec >= base.L1Sec || fast.L2Sec >= base.L2Sec {
		t.Fatal("faster disk should cheapen L1/L2")
	}
	slow := byName["1/2 local storage BW"]
	if slow.L1Sec <= base.L1Sec {
		t.Fatal("slower disk should raise L1")
	}
	// Bigger PFS only helps L4.
	pfs := byName["2x PFS aggregate BW"]
	if pfs.L4Sec >= base.L4Sec {
		t.Fatal("bigger PFS should cheapen L4")
	}
	if pfs.L1Sec != base.L1Sec {
		t.Fatal("PFS change should not affect L1")
	}
	// Faster network cheapens L2's partner transfer.
	nw := byName["2x network link BW"]
	if nw.L2Sec >= base.L2Sec {
		t.Fatal("faster network should cheapen L2")
	}
	if nw.L1Sec != base.L1Sec {
		t.Fatal("network change should not affect L1")
	}
	var b strings.Builder
	FormatArchDSE(&b, rows)
	if !strings.Contains(b.String(), "Extension F") {
		t.Fatal("rendering broken")
	}
}
