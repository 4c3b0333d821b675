package groundtruth

import (
	"math"
	"testing"

	"besst/internal/fti"
	"besst/internal/lulesh"
	"besst/internal/stats"
)

func TestTimestepMeanScalesWithEPR(t *testing.T) {
	e := NewQuartz()
	prev := 0.0
	for _, epr := range []int{5, 10, 15, 20, 25} {
		v := e.LuleshTimestepMean(epr, 64)
		if v <= prev {
			t.Fatalf("timestep mean not increasing at epr %d", epr)
		}
		prev = v
	}
	// Roughly cubic: 25 vs 5 should be ~>100x.
	r := e.LuleshTimestepMean(25, 64) / e.LuleshTimestepMean(5, 64)
	if r < 50 {
		t.Fatalf("epr scaling ratio %v too weak", r)
	}
}

func TestTimestepMeanScalesSlightlyWithRanks(t *testing.T) {
	e := NewQuartz()
	small := e.LuleshTimestepMean(15, 8)
	big := e.LuleshTimestepMean(15, 1000)
	if big <= small {
		t.Fatal("timestep should scale slightly with ranks")
	}
	// "Slightly": well under 2x across the whole rank range.
	if big/small > 1.5 {
		t.Fatalf("timestep rank scaling %v too strong", big/small)
	}
}

func TestCkptMeanAboveTimestep(t *testing.T) {
	// Paper Figs 5-6: checkpoint instances cost more than a timestep
	// across the studied grid.
	e := NewQuartz()
	for _, epr := range []int{5, 10, 15, 20, 25} {
		for _, ranks := range []int{8, 64, 216, 512, 1000} {
			ts := e.LuleshTimestepMean(epr, ranks)
			c1 := e.CkptMean(fti.L1, epr, ranks)
			c2 := e.CkptMean(fti.L2, epr, ranks)
			if c1 <= ts {
				t.Fatalf("L1 ckpt %v <= timestep %v at epr=%d ranks=%d", c1, ts, epr, ranks)
			}
			if c2 <= c1 {
				t.Fatalf("L2 ckpt %v <= L1 %v at epr=%d ranks=%d", c2, c1, epr, ranks)
			}
		}
	}
}

func TestCkptScalesFasterWithRanksThanTimestep(t *testing.T) {
	e := NewQuartz()
	tsRatio := e.LuleshTimestepMean(15, 1000) / e.LuleshTimestepMean(15, 8)
	ckRatio := e.CkptMean(fti.L1, 15, 1000) / e.CkptMean(fti.L1, 15, 8)
	if ckRatio <= tsRatio {
		t.Fatalf("checkpoint rank scaling %v should exceed timestep's %v", ckRatio, tsRatio)
	}
}

func TestMeasureNoisyButUnbiased(t *testing.T) {
	e := NewQuartz()
	rng := stats.NewRNG(1)
	mean := e.LuleshTimestepMean(15, 64)
	var sum float64
	const n = 5000
	different := false
	first := e.MeasureLuleshTimestep(15, 64, rng)
	for i := 0; i < n; i++ {
		v := e.MeasureLuleshTimestep(15, 64, rng)
		if v != first {
			different = true
		}
		sum += v
	}
	if !different {
		t.Fatal("measurements carry no noise")
	}
	got := sum / n
	if got < 0.97*mean || got > 1.05*mean {
		t.Fatalf("measured mean %v deviates from %v", got, mean)
	}
}

func TestCkptNoisierThanTimestep(t *testing.T) {
	e := NewQuartz()
	if e.CkptSigma <= e.TimestepSigma {
		t.Fatal("checkpoint noise should exceed timestep noise")
	}
}

func TestFullRunCumulativeMonotone(t *testing.T) {
	e := NewQuartz()
	rng := stats.NewRNG(2)
	cum := e.FullRun(10, 64, 200, lulesh.ScenarioL1, rng)
	if len(cum) != 200 {
		t.Fatalf("len = %d", len(cum))
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] <= cum[i-1] {
			t.Fatalf("cumulative time not increasing at step %d", i)
		}
	}
}

// TestFullRunIntoReusesBuffer: the buffered variant must reproduce
// FullRun exactly and reuse a caller buffer of sufficient capacity
// instead of allocating.
func TestFullRunIntoReusesBuffer(t *testing.T) {
	e := NewQuartz()
	want := e.FullRun(10, 64, 50, lulesh.ScenarioL1, stats.NewRNG(9))

	buf := make([]float64, 0, 200)
	got := e.FullRunInto(buf, 10, 64, 50, lulesh.ScenarioL1, stats.NewRNG(9))
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: %v != %v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("FullRunInto did not reuse the provided buffer")
	}
	// Too-small buffers grow transparently.
	if short := e.FullRunInto(make([]float64, 0, 4), 10, 64, 50, lulesh.ScenarioL1, stats.NewRNG(9)); len(short) != 50 {
		t.Fatalf("grown buffer len = %d", len(short))
	}
}

func TestFullRunScenarioOrdering(t *testing.T) {
	// Total runtime: No FT < L1 < L1&L2 (Figs 7-8).
	e := NewQuartz()
	total := func(sc lulesh.Scenario) float64 {
		rng := stats.NewRNG(3)
		cum := e.FullRun(15, 64, 200, sc, rng)
		return cum[len(cum)-1]
	}
	noFT := total(lulesh.ScenarioNoFT)
	l1 := total(lulesh.ScenarioL1)
	l12 := total(lulesh.ScenarioL1L2)
	if !(noFT < l1 && l1 < l12) {
		t.Fatalf("scenario ordering violated: %v %v %v", noFT, l1, l12)
	}
}

func TestFullRunCheckpointStepsVisible(t *testing.T) {
	// Steps containing a checkpoint must be notably longer.
	e := NewQuartz()
	rng := stats.NewRNG(4)
	cum := e.FullRun(10, 64, 80, lulesh.ScenarioL1, rng)
	stepTime := func(i int) float64 {
		if i == 0 {
			return cum[0]
		}
		return cum[i] - cum[i-1]
	}
	ckptStep := stepTime(39) // period 40, offset 39
	plainStep := stepTime(20)
	if ckptStep < 3*plainStep {
		t.Fatalf("checkpoint step %v not clearly longer than plain %v", ckptStep, plainStep)
	}
}

func TestCmtTimestep(t *testing.T) {
	e := NewVulcan()
	small := e.CmtTimestepMean(16, 128)
	big := e.CmtTimestepMean(64, 128)
	if big <= small {
		t.Fatal("CMT-bone cost should grow with problem size")
	}
	rng := stats.NewRNG(5)
	if e.MeasureCmtTimestep(16, 128, rng) <= 0 {
		t.Fatal("measurement should be positive")
	}
}

func TestQuartzVulcanDistinct(t *testing.T) {
	q, v := NewQuartz(), NewVulcan()
	if q.M.Name == v.M.Name {
		t.Fatal("emulators should describe different machines")
	}
	// Same workload costs differ across machines.
	if q.LuleshTimestepMean(15, 64) == v.LuleshTimestepMean(15, 64) {
		t.Fatal("machines should have different performance")
	}
}

func TestABFTTimestepOverhead(t *testing.T) {
	e := NewQuartz()
	for _, epr := range []int{5, 15, 25} {
		for _, ranks := range []int{8, 1000} {
			base := e.LuleshTimestepMean(epr, ranks)
			abft := e.LuleshTimestepABFTMean(epr, ranks)
			if abft <= base {
				t.Fatalf("ABFT should cost more than baseline at epr=%d ranks=%d", epr, ranks)
			}
			// Overhead is bounded: well under 2x for these sizes.
			if abft > 2*base {
				t.Fatalf("ABFT overhead implausible: %v vs %v", abft, base)
			}
		}
	}
	// The ABFT overhead *ratio* shrinks with problem size (the fixed
	// verification term amortizes), unlike checkpoint cost.
	r5 := e.LuleshTimestepABFTMean(5, 64) / e.LuleshTimestepMean(5, 64)
	r25 := e.LuleshTimestepABFTMean(25, 64) / e.LuleshTimestepMean(25, 64)
	if r25 >= r5 {
		t.Fatalf("ABFT relative overhead should shrink with epr: %v -> %v", r5, r25)
	}
	rng := stats.NewRNG(1)
	if e.MeasureLuleshTimestepABFT(10, 64, rng) <= 0 {
		t.Fatal("measurement should be positive")
	}
}

// stepMaxPerDraw is the reference StepMax: exponentiate every rank's
// draw and keep the largest, from a floor of 0.
func stepMaxPerDraw(mean, sigma float64, ranks int, rng *stats.RNG) float64 {
	n := min(max(ranks, 1), MaxRankDraws)
	worst := 0.0
	for i := 0; i < n; i++ {
		if v := rng.LogNormal(0, sigma); v > worst {
			worst = v
		}
	}
	return mean * worst
}

// TestStepMaxMatchesPerDrawExp pins StepMax's single exp of the largest
// normal draw to the per-draw reference bit for bit, including the NaN
// and infinite sigmas, and checks both consume the same draws.
func TestStepMaxMatchesPerDrawExp(t *testing.T) {
	sigmas := []float64{0, 1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.12, 0.5, 1, 2, 3, math.NaN(), math.Inf(1)}
	ranks := []int{1, 8, 64, 216, MaxRankDraws + 1000}
	for _, sigma := range sigmas {
		for _, r := range ranks {
			seed := uint64(r)*1000003 + math.Float64bits(sigma)
			got, want := stats.NewRNG(seed), stats.NewRNG(seed)
			reps := 40
			if r > MaxRankDraws {
				reps = 2
			}
			for rep := 0; rep < reps; rep++ {
				g := StepMax(1.7, sigma, r, got)
				w := stepMaxPerDraw(1.7, sigma, r, want)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("sigma %g ranks %d rep %d: StepMax = %v (%#x), per-draw = %v (%#x)",
						sigma, r, rep, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("sigma %g ranks %d: StepMax consumed a different number of draws", sigma, r)
			}
		}
	}
}
