// Package benchdata implements the benchmarking half of the Model
// Development phase (Fig 2, left): run the instrumented application
// blocks over the design-space parameter grid on the (emulated) real
// machine, collect repeated timing samples per parameter combination,
// and package them for the two modeling methods — lookup tables
// (perfmodel.Table) and symbolic regression (symreg.Dataset).
package benchdata

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"besst/internal/fti"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/perfmodel"
	"besst/internal/stats"
	"besst/internal/symreg"
)

// Sample is one timed run of one instrumented block.
type Sample struct {
	Op      string
	Params  perfmodel.Params
	Seconds float64
}

// Campaign is a collection of benchmark samples.
type Campaign struct {
	Samples []Sample
}

// Add appends one sample.
func (c *Campaign) Add(op string, p perfmodel.Params, seconds float64) {
	c.Samples = append(c.Samples, Sample{Op: op, Params: p.Clone(), Seconds: seconds})
}

// Ops returns the distinct op names present, sorted.
func (c *Campaign) Ops() []string {
	seen := map[string]bool{}
	for _, s := range c.Samples {
		seen[s.Op] = true
	}
	ops := make([]string, 0, len(seen))
	for op := range seen {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}

// ForOp returns the samples of one op.
func (c *Campaign) ForOp(op string) []Sample {
	var out []Sample
	for _, s := range c.Samples {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// Table builds the interpolation lookup table for one op over the given
// parameter axes.
func (c *Campaign) Table(op string, paramNames ...string) *perfmodel.Table {
	t := perfmodel.NewTable(op, paramNames...)
	for _, s := range c.ForOp(op) {
		t.Add(s.Params, s.Seconds)
	}
	if t.Points() == 0 {
		panic(fmt.Sprintf("benchdata: no samples for op %q", op))
	}
	return t
}

// Dataset builds the symbolic-regression dataset for one op over the
// given variables.
func (c *Campaign) Dataset(op string, varNames ...string) symreg.Dataset {
	ds := symreg.Dataset{VarNames: varNames}
	for _, s := range c.ForOp(op) {
		row := make([]float64, len(varNames))
		for i, n := range varNames {
			row[i] = s.Params.Get(n)
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, s.Seconds)
	}
	if len(ds.Y) == 0 {
		panic(fmt.Sprintf("benchdata: no samples for op %q", op))
	}
	return ds
}

// LuleshPlan configures a LULESH+FTI benchmarking campaign over the
// Table II grid.
type LuleshPlan struct {
	EPRs       []int
	Ranks      []int
	Levels     []fti.Level
	SamplesPer int // repeated timings per parameter combination
	Seed       uint64
}

// CaseStudyPlan returns the paper's Table II campaign: epr
// {5,10,15,20,25} x ranks {8,64,216,512,1000}, checkpoint levels 1 and
// 2, with the given number of repeated samples per combination.
func CaseStudyPlan(samplesPer int, seed uint64) LuleshPlan {
	return LuleshPlan{
		EPRs:       []int{5, 10, 15, 20, 25},
		Ranks:      []int{8, 64, 216, 512, 1000},
		Levels:     []fti.Level{fti.L1, fti.L2},
		SamplesPer: samplesPer,
		Seed:       seed,
	}
}

// CollectLulesh runs the campaign against the ground-truth emulator:
// for every (epr, ranks) combination it times the LULESH timestep
// function and each requested checkpoint level SamplesPer times.
func CollectLulesh(e *groundtruth.Emulator, plan LuleshPlan) *Campaign {
	if plan.SamplesPer <= 0 {
		panic("benchdata: non-positive samples per combination")
	}
	rng := stats.NewRNG(plan.Seed)
	c := &Campaign{}
	for _, epr := range plan.EPRs {
		for _, ranks := range plan.Ranks {
			p := perfmodel.Params{"epr": float64(epr), "ranks": float64(ranks)}
			for i := 0; i < plan.SamplesPer; i++ {
				c.Add(lulesh.OpTimestep, p, e.MeasureLuleshTimestep(epr, ranks, rng))
				for _, l := range plan.Levels {
					c.Add(lulesh.CkptOp(l), p, e.MeasureCkpt(l, epr, ranks, rng))
				}
			}
		}
	}
	return c
}

// CollectCmtBone runs a CMT-bone campaign (Fig 1's Vulcan study) over
// problem sizes and rank counts.
func CollectCmtBone(e *groundtruth.Emulator, psizes, ranks []int, samplesPer int, seed uint64) *Campaign {
	if samplesPer <= 0 {
		panic("benchdata: non-positive samples per combination")
	}
	rng := stats.NewRNG(seed)
	c := &Campaign{}
	for _, ps := range psizes {
		for _, r := range ranks {
			p := perfmodel.Params{"psize": float64(ps), "ranks": float64(r)}
			for i := 0; i < samplesPer; i++ {
				c.Add("cmtbone_timestep", p, e.MeasureCmtTimestep(ps, r, rng))
			}
		}
	}
	return c
}

// WriteCSV serializes the campaign with header op,<param>...,seconds.
// All samples must share the same parameter names.
func (c *Campaign) WriteCSV(w io.Writer) error {
	if len(c.Samples) == 0 {
		return fmt.Errorf("benchdata: empty campaign")
	}
	var names []string
	for k := range c.Samples[0].Params {
		names = append(names, k)
	}
	sort.Strings(names)
	cw := csv.NewWriter(w)
	header := append(append([]string{"op"}, names...), "seconds")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range c.Samples {
		row := []string{s.Op}
		for _, n := range names {
			row = append(row, strconv.FormatFloat(s.Params.Get(n), 'g', -1, 64))
		}
		row = append(row, strconv.FormatFloat(s.Seconds, 'g', -1, 64))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a campaign serialized by WriteCSV.
func ReadCSV(r io.Reader) (*Campaign, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("benchdata: CSV has no data rows")
	}
	header := rows[0]
	if len(header) < 3 || header[0] != "op" || header[len(header)-1] != "seconds" {
		return nil, fmt.Errorf("benchdata: malformed CSV header %v", header)
	}
	paramNames := header[1 : len(header)-1]
	c := &Campaign{}
	for i, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, fmt.Errorf("benchdata: row %d has %d fields, want %d", i+2, len(row), len(header))
		}
		p := perfmodel.Params{}
		for j, n := range paramNames {
			v, err := strconv.ParseFloat(row[j+1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdata: row %d param %s: %v", i+2, n, err)
			}
			p[n] = v
		}
		sec, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("benchdata: row %d seconds: %v", i+2, err)
		}
		c.Add(row[0], p, sec)
	}
	return c, nil
}
