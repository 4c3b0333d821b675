package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"besst/internal/benchdata"
	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/dse"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/par"
	"besst/internal/workflow"
)

// The -parbench harness measures the serial and parallel execution
// paths of the two campaign tiers — Monte Carlo replication (Direct
// mode) and the DSE overhead sweep — with testing.Benchmark, verifies
// the parallel paths produce identical results, and writes a
// benchdata.ParallelReport consumed by `benchdiff -parallel`.
//
// GOMAXPROCS is pinned to at least max(4, workers) before measuring:
// the committed snapshot was once recorded with gomaxprocs 1, which
// made every "speedup" a meaningless ~1.0x. Pinning alone cannot
// conjure cores, so the report also records NumCPU and a ScalingValid
// verdict — on hardware without enough CPUs the harness still measures
// honestly but refuses to certify the numbers as scaling evidence, and
// the benchdiff gate degrades to its ns/op tolerance.

func benchLoop(fn func()) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
}

func runParBench(outPath string, workers int, seed uint64) {
	w := par.Workers(workers)
	target := w
	if target < 4 {
		target = 4
	}
	if runtime.GOMAXPROCS(0) < target {
		runtime.GOMAXPROCS(target)
	}
	numCPU := runtime.NumCPU()
	scalingValid := w > 1 && numCPU >= w
	em := groundtruth.NewQuartz()
	fmt.Fprintf(os.Stderr, "besst-bench: parbench with %d workers (GOMAXPROCS %d, %d CPUs)\n",
		w, runtime.GOMAXPROCS(0), numCPU)
	if !scalingValid {
		fmt.Fprintf(os.Stderr, "besst-bench: WARNING: %d CPUs cannot exhibit %d-way speedup; recording scaling_valid=false\n",
			numCPU, w)
	}
	models, _ := workflow.DevelopLuleshQuartz(em, 5, workflow.Interpolation, seed)

	// Tier 1: Monte Carlo replication over one compiled run.
	const mcN = 32
	app := lulesh.App(15, 216, 60, lulesh.ScenarioL1L2, em.Cost.Config)
	arch := beo.NewArchBEO(em.M, em.Cost.Config.NodeSize)
	workflow.BindLulesh(arch, models)
	cr := besst.Compile(app, arch)
	opts := []besst.Option{
		besst.WithMode(besst.Direct), besst.WithPerRankNoise(true), besst.WithSeed(seed),
	}
	serialOpts := append(opts[:len(opts):len(opts)], besst.WithConcurrency(1))
	parallelOpts := append(opts[:len(opts):len(opts)], besst.WithConcurrency(w))

	identical := identicalMakespans(
		besst.Makespans(cr.Replicate(mcN, serialOpts...)),
		besst.Makespans(cr.Replicate(mcN, parallelOpts...)))

	mcSerial := benchLoop(func() { cr.Replicate(mcN, serialOpts...) })
	mcParallel := benchLoop(func() { cr.Replicate(mcN, parallelOpts...) })

	// Tier 2: DSE overhead sweep.
	sweep := dse.SweepConfig{
		EPRs:      []int{10, 15},
		Ranks:     []int{8, 64},
		Scenarios: []lulesh.Scenario{lulesh.ScenarioNoFT, lulesh.ScenarioL1, lulesh.ScenarioL1L2},
		Timesteps: 40,
		MCRuns:    3,
		Seed:      seed + 1,
	}
	serialSweep, parallelSweep := sweep, sweep
	serialSweep.Workers = 1
	parallelSweep.Workers = w
	identical = identical && identicalCells(
		dse.OverheadSweep(models, em.M, em.Cost.Config.NodeSize, serialSweep),
		dse.OverheadSweep(models, em.M, em.Cost.Config.NodeSize, parallelSweep))

	swSerial := benchLoop(func() { dse.OverheadSweep(models, em.M, em.Cost.Config.NodeSize, serialSweep) })
	swParallel := benchLoop(func() { dse.OverheadSweep(models, em.M, em.Cost.Config.NodeSize, parallelSweep) })

	report := benchdata.ParallelReport{
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           numCPU,
		Workers:          w,
		MCReplications:   mcN,
		ScalingValid:     scalingValid,
		IdenticalResults: identical,
		Benchmarks: []benchdata.ParallelEntry{
			entry("MonteCarloDirect/serial", 1, mcSerial, 0),
			entry("MonteCarloDirect/parallel", w, mcParallel, speedup(mcSerial, mcParallel)),
			entry("OverheadSweep/serial", 1, swSerial, 0),
			entry("OverheadSweep/parallel", w, swParallel, speedup(swSerial, swParallel)),
		},
	}
	if !identical {
		fmt.Fprintln(os.Stderr, "besst-bench: WARNING: parallel results diverge from serial results")
	}

	if dir := filepath.Dir(outPath); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatalf("mkdir %s: %v", dir, err)
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("marshal report: %v", err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", outPath, err)
	}
	for _, b := range report.Benchmarks {
		fmt.Fprintf(os.Stderr, "  %-28s %12d ns/op %9d allocs/op", b.Name, b.NsPerOp, b.AllocsPerOp)
		if b.SpeedupVsSerial > 0 {
			fmt.Fprintf(os.Stderr, "  %.2fx vs serial", b.SpeedupVsSerial)
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "besst-bench: wrote %s (identical results: %v, scaling valid: %v)\n",
		outPath, identical, scalingValid)
}

func entry(name string, workers int, r testing.BenchmarkResult, speedup float64) benchdata.ParallelEntry {
	return benchdata.ParallelEntry{
		Name:            name,
		Workers:         workers,
		NsPerOp:         r.NsPerOp(),
		AllocsPerOp:     r.AllocsPerOp(),
		SpeedupVsSerial: speedup,
	}
}

func speedup(serial, parallel testing.BenchmarkResult) float64 {
	if parallel.NsPerOp() <= 0 {
		return 0
	}
	return float64(serial.NsPerOp()) / float64(parallel.NsPerOp())
}

func identicalMakespans(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:ignore floateq the serial-vs-parallel gate asserts bit-identical replication
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func identicalCells(a, b []dse.Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
