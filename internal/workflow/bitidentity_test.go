package workflow

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// TestSymregDevelopmentBitIdentical pins every bit symbolic-regression
// model development produces for the shared fixture (8 samples, seed
// 42): the saved bundle bytes and the exact train, test and validation
// MAPEs of each op. The GP's RNG draw sequence and per-row arithmetic
// order are part of this contract, so a change to the GP internals
// (fitness evaluation, genome layout) that is meant to be a pure speed-up
// must leave these values untouched.
func TestSymregDevelopmentBitIdentical(t *testing.T) {
	sr, _, _ := developed(t)
	h := sha256.New()
	if err := sr.Save(h); err != nil {
		t.Fatal(err)
	}
	const wantSave = "1e60e9f7e065fc9db47ebd88b16fb6024883ebb7bf2625cc4d6451715875bdad"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSave {
		t.Errorf("saved bundle sha256 = %s, want %s", got, wantSave)
	}

	want := []struct {
		op                string
		train, test, vali uint64
	}{
		{"fti_ckpt_l1", 0x402adb6bd9b5f1b8, 0x402d9a21b36fe302, 0x402b67f69edb21f7},
		{"fti_ckpt_l2", 0x4030173f12b4ea36, 0x402a74dc7922c0f2, 0x402f095dcfc203bd},
		{"lulesh_timestep", 0x4013d9db376d1b58, 0x401726bb0d2a24d1, 0x401482d4c892ea06},
	}
	if len(sr.Reports) != len(want) {
		t.Fatalf("reports = %d, want %d", len(sr.Reports), len(want))
	}
	for i, w := range want {
		r := sr.Reports[i]
		got := [3]uint64{math.Float64bits(r.TrainMAPE), math.Float64bits(r.TestMAPE), math.Float64bits(r.ValidationMAPE)}
		if r.Op != w.op || got != [3]uint64{w.train, w.test, w.vali} {
			t.Errorf("report %d = %s train/test/validation %#x, want %s %#x",
				i, r.Op, got, w.op, [3]uint64{w.train, w.test, w.vali})
		}
	}
}
