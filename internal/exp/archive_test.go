package exp

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// archivePath is the committed full-settings besst-exp output; make
// exp-verify pins it byte for byte, this test pins what it claims.
const archivePath = "../../results/besst-exp-full.txt"

// archiveBlock returns the block of lines that starts at the first line
// at or after from beginning with prefix and runs to the next blank
// line, plus the index just past the block. A missing block fails t.
func archiveBlock(t *testing.T, lines []string, from int, prefix string) ([]string, int) {
	t.Helper()
	for i := from; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], prefix) {
			continue
		}
		end := i
		for end < len(lines) && strings.TrimSpace(lines[end]) != "" {
			end++
		}
		return lines[i:end], end
	}
	t.Fatalf("archive has no %q section", prefix)
	return nil, 0
}

// pctRows reads the rows of a table block that carry percentages: the
// row label is the text before the first "N%" field, the values are
// every "N%" field in order.
func pctRows(t *testing.T, block []string) map[string][]float64 {
	t.Helper()
	rows := map[string][]float64{}
	for _, line := range block {
		var label []string
		var vals []float64
		for _, f := range strings.Fields(line) {
			num, ok := strings.CutSuffix(f, "%")
			if !ok {
				if len(vals) == 0 {
					label = append(label, f)
				}
				continue
			}
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				t.Fatalf("bad percentage %q in %q", f, line)
			}
			vals = append(vals, v)
		}
		if len(vals) > 0 {
			rows[strings.Join(label, " ")] = vals
		}
	}
	return rows
}

// row returns the named row's values, failing t if the row is absent.
func row(t *testing.T, rows map[string][]float64, section, name string) []float64 {
	t.Helper()
	v, ok := rows[name]
	if !ok || len(v) == 0 {
		t.Fatalf("%s: no %q row", section, name)
	}
	return v
}

// TestArchiveClaims holds the archived paper reproduction to the
// paper's qualitative claims, so a regenerated archive cannot drift
// out of them silently: the Table III and IV error bands, Fig 6's
// checkpoints above timesteps, the Fig 9 overhead ordering and rank
// growth, and the Figs 7-8 series errors.
func TestArchiveClaims(t *testing.T) {
	data, err := os.ReadFile(archivePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")

	// Table III: per-kernel model MAPE; the timestep kernel is the most
	// accurate.
	block, _ := archiveBlock(t, lines, 0, "Table III:")
	t3 := pctRows(t, block)
	ts := row(t, t3, "Table III", "LULESH Timestep")[0]
	if ts > 12 {
		t.Errorf("Table III: timestep MAPE %.2f%% > 12%%", ts)
	}
	for _, name := range []string{"Level 1 Checkpointing", "Level 2 Checkpointing"} {
		ck := row(t, t3, "Table III", name)[0]
		if ck > 28 {
			t.Errorf("Table III: %s MAPE %.2f%% > 28%%", name, ck)
		}
		if ts >= ck {
			t.Errorf("Table III: timestep MAPE %.2f%% is not below %s %.2f%%", ts, name, ck)
		}
	}

	// Table IV: full-system MAPE per fault-tolerance level.
	block, _ = archiveBlock(t, lines, 0, "Table IV:")
	t4 := pctRows(t, block)
	for _, name := range []string{"LULESH + No FT", "LULESH + L1", "LULESH + L1 & L2"} {
		if m := row(t, t4, "Table IV", name)[0]; m <= 0 || m > 35 {
			t.Errorf("Table IV: %s MAPE %.2f%% outside (0, 35]", name, m)
		}
	}

	// Fig 6: at epr 15 the modeled timestep is below both modeled
	// checkpoint levels at every measured rank count (the archive's
	// counterpart of TestFigOrderingCkptAboveTimestep).
	fig6, _ := archiveBlock(t, lines, 0, "Fig 6:")
	modeled := map[string]map[string]float64{} // op -> ranks -> modeled
	op := ""
	for _, line := range fig6[1:] {
		f := strings.Fields(line)
		switch {
		case len(f) == 1:
			op = f[0]
			modeled[op] = map[string]float64{}
		case len(f) >= 4 && f[0] == "15" && f[2] != "(predict)":
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil || op == "" {
				t.Fatalf("Fig 6: bad row %q", line)
			}
			modeled[op][f[1]] = v
		}
	}
	steps := modeled["lulesh_timestep"]
	if len(steps) == 0 {
		t.Fatal("Fig 6: no measured lulesh_timestep rows at epr 15")
	}
	for _, ck := range []string{"fti_ckpt_l1", "fti_ckpt_l2"} {
		if len(modeled[ck]) != len(steps) {
			t.Fatalf("Fig 6: %s has %d measured rank counts at epr 15, the timestep %d", ck, len(modeled[ck]), len(steps))
		}
		for ranks, step := range steps {
			if c, ok := modeled[ck][ranks]; !ok || step >= c {
				t.Errorf("Fig 6 epr 15, %s ranks: modeled timestep %g is not below %s %g", ranks, step, ck, c)
			}
		}
	}

	// Fig 9: overheads stack No FT < L1 < L1 & L2 in every column, and
	// every (scenario, epr) cell grows from 64 to 1000 ranks.
	fig9, at := archiveBlock(t, lines, 0, "Fig 9:")
	big, _ := archiveBlock(t, lines, at, "1000 Ranks")
	var eprs []string
	for _, line := range fig9 {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "64" && f[1] == "Ranks" {
			eprs = f[2:]
		}
	}
	if len(eprs) == 0 {
		t.Fatal("Fig 9: no 64 Ranks header")
	}
	if f := strings.Fields(big[0]); strings.Join(f[2:], " ") != strings.Join(eprs, " ") {
		t.Fatalf("Fig 9: 1000-rank columns %v differ from 64-rank columns %v", f[2:], eprs)
	}
	r64, r1000 := pctRows(t, fig9), pctRows(t, big)
	scenarios := []string{"No FT", "L1", "L1 & L2"}
	for _, rows := range []map[string][]float64{r64, r1000} {
		for _, sc := range scenarios {
			if got := len(row(t, rows, "Fig 9", sc)); got != len(eprs) {
				t.Fatalf("Fig 9: %s has %d cells for %d epr columns", sc, got, len(eprs))
			}
		}
	}
	for j, epr := range eprs {
		for i, rows := range []map[string][]float64{r64, r1000} {
			for k := 1; k < len(scenarios); k++ {
				lo, hi := rows[scenarios[k-1]][j], rows[scenarios[k]][j]
				if lo >= hi {
					t.Errorf("Fig 9 %s ranks, epr %s: %s %.0f%% is not below %s %.0f%%",
						[]string{"64", "1000"}[i], epr, scenarios[k-1], lo, scenarios[k], hi)
				}
			}
		}
		for _, sc := range scenarios {
			if a, b := r64[sc][j], r1000[sc][j]; a >= b {
				t.Errorf("Fig 9 %s, epr %s: %.0f%% at 64 ranks does not grow to 1000 ranks (%.0f%%)", sc, epr, a, b)
			}
		}
	}

	// Figs 7-8: the DES runtime series track the measured runtime.
	for _, fig := range []string{"Fig 7:", "Fig 8:"} {
		block, _ := archiveBlock(t, lines, 0, fig)
		series := 0
		for _, line := range block {
			if !strings.HasPrefix(line, "scenario ") {
				continue
			}
			series++
			f := strings.Fields(line)
			num, ok := strings.CutSuffix(f[len(f)-1], "%")
			m, err := strconv.ParseFloat(num, 64)
			if !ok || err != nil || !strings.Contains(line, "series MAPE") {
				t.Fatalf("%s bad series line %q", fig, line)
			}
			if m > 20 {
				t.Errorf("%s series MAPE %.2f%% > 20%%: %s", fig, m, line)
			}
		}
		if series != len(scenarios) {
			t.Errorf("%s has %d series, want %d", fig, series, len(scenarios))
		}
	}
}
