package besst

import (
	"errors"
	"testing"

	"besst/internal/beo"
	"besst/internal/lulesh"
	"besst/internal/machine"
)

// TestReplicateErrTypedValidation pins the typed-error contract of the
// Err-suffixed entry points: bad campaign inputs come back as
// *ConfigError naming the offending field instead of panicking deep in
// the run.
func TestReplicateErrTypedValidation(t *testing.T) {
	app := lulesh.App(10, 8, 5, lulesh.ScenarioNoFT, cfg)
	arch := constArch(1, 1, 1)
	noRanks, negRanks := *app, *app
	noRanks.Ranks, negRanks.Ranks = 0, -4

	cases := []struct {
		name  string
		field string
		run   func() error
	}{
		{"zero trials", "trials", func() error {
			_, err := ReplicateErr(app, arch, 0)
			return err
		}},
		{"negative trials", "trials", func() error {
			_, err := ReplicateErr(app, arch, -3)
			return err
		}},
		{"nil app", "app", func() error {
			_, err := ReplicateErr(nil, arch, 4)
			return err
		}},
		{"nil arch", "arch", func() error {
			_, err := ReplicateErr(app, nil, 4)
			return err
		}},
		{"nil app compile", "app", func() error {
			_, err := CompileErr(nil, arch)
			return err
		}},
		{"zero ranks compile", "app", func() error {
			_, err := CompileErr(&noRanks, arch)
			return err
		}},
		{"zero ranks DES", "app", func() error {
			_, err := ReplicateErr(&noRanks, arch, 4, WithMode(DES))
			return err
		}},
		{"zero ranks Direct", "app", func() error {
			_, err := ReplicateErr(&noRanks, arch, 4, WithMode(Direct))
			return err
		}},
		{"negative ranks DES", "app", func() error {
			_, err := ReplicateErr(&negRanks, arch, 4, WithMode(DES))
			return err
		}},
		{"negative ranks Direct", "app", func() error {
			_, err := ReplicateErr(&negRanks, arch, 4, WithMode(Direct))
			return err
		}},
		{"absurd workers", "workers", func() error {
			_, err := ReplicateErr(app, arch, 4, WithConcurrency(MaxWorkers+1))
			return err
		}},
		{"unknown mode", "mode", func() error {
			_, err := ReplicateErr(app, arch, 4, WithMode(Mode(99)))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("field = %q, want %q (err: %v)", ce.Field, tc.field, ce)
			}
		})
	}
}

// TestCompileErrRejectsMismatchedArch checks that app/arch validation
// failures surface as wrapped errors rather than panics.
func TestCompileErrRejectsMismatchedArch(t *testing.T) {
	app := lulesh.App(10, 8, 5, lulesh.ScenarioL1, cfg)
	// An arch with no model bindings at all cannot satisfy the app's
	// ops, so validation must fail.
	if _, err := CompileErr(app, beo.NewArchBEO(machine.Quartz(), 2)); err == nil {
		t.Fatal("CompileErr accepted an arch with no model bindings")
	}
}

// TestPanicWrappersCarryTypedError checks the legacy panicking entry
// points now panic with the same typed error, so existing recover-based
// callers can classify what went wrong.
func TestPanicWrappersCarryTypedError(t *testing.T) {
	app := lulesh.App(10, 8, 5, lulesh.ScenarioNoFT, cfg)
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %v is not an error", r)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "trials" {
			t.Fatalf("panic error = %v, want *ConfigError on trials", err)
		}
	}()
	Replicate(app, constArch(1, 1, 1), 0)
}

// TestTrialRunnerMatchesReplicate checks the exposed per-trial executor
// reproduces Replicate exactly, in any call order — the property the
// resume path depends on.
func TestTrialRunnerMatchesReplicate(t *testing.T) {
	app := lulesh.App(10, 8, 20, lulesh.ScenarioL1, cfg)
	arch := noisyArch()
	cr := Compile(app, arch)
	const n = 8
	want := cr.Replicate(n, WithMode(Direct), WithSeed(11), WithConcurrency(1))

	run, err := cr.TrialRunner(n, WithMode(Direct), WithSeed(11))
	if err != nil {
		t.Fatalf("TrialRunner: %v", err)
	}
	got := make([]*Result, n)
	// Reverse order: trial results must depend only on the index.
	for i := n - 1; i >= 0; i-- {
		got[i] = run(i)
	}
	requireIdenticalResults(t, want, got, "trial runner")
}
