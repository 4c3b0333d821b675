package stats

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// streamGolden holds the first 64 outputs of every RNG stream the
// simulator draws from, at two seeds, as hex bits. Every simulated
// number descends from these streams, so any change to them, however
// small, moves results; the file was written from the generator before
// its core was rewritten for speed, and must never be regenerated.
var streamGolden = filepath.Join("testdata", "streams.golden")

// streamLines renders the pinned streams: one "seed stream index bits"
// line per output, each stream drawn from a fresh generator.
func streamLines() []string {
	const n = 64
	streams := []struct {
		name string
		draw func(r *RNG) uint64
	}{
		{"Uint64", func(r *RNG) uint64 { return r.Uint64() }},
		{"Float64", func(r *RNG) uint64 { return math.Float64bits(r.Float64()) }},
		{"Normal", func(r *RNG) uint64 { return math.Float64bits(r.Normal(0.5, 2)) }},
		{"LogNormal", func(r *RNG) uint64 { return math.Float64bits(r.LogNormal(0, 0.12)) }},
		{"Exponential", func(r *RNG) uint64 { return math.Float64bits(r.Exponential(3)) }},
		{"Intn256", func(r *RNG) uint64 { return uint64(r.Intn(256)) }},
		{"Intn64", func(r *RNG) uint64 { return uint64(r.Intn(64)) }},
		{"Intn7", func(r *RNG) uint64 { return uint64(r.Intn(7)) }},
	}
	var lines []string
	for _, seed := range []uint64{1, 0xdeadbeefcafe} {
		for _, s := range streams {
			r := NewRNG(seed)
			for i := 0; i < n; i++ {
				lines = append(lines, fmt.Sprintf("%#x %s %d %#016x", seed, s.name, i, s.draw(r)))
			}
		}
	}
	return lines
}

// TestStreamsPinned holds Uint64, Float64, Normal, LogNormal,
// Exponential and Intn (power-of-two and other bounds) to their frozen
// outputs bit for bit.
func TestStreamsPinned(t *testing.T) {
	f, err := os.Open(streamGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := streamLines()
	if len(got) != len(want) {
		t.Fatalf("%d stream lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d: got %q, golden %q", i+1, got[i], want[i])
		}
	}
}
