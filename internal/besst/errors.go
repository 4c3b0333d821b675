package besst

import (
	"fmt"

	"besst/internal/beo"
)

// MaxWorkers bounds RunConfig.Workers: anything above this is a
// configuration bug (a corrupted flag, an overflowed computation), not
// a plausible pool width, and is rejected before any goroutine spawns.
const MaxWorkers = 1 << 16

// ConfigError reports an invalid run configuration. It is returned by
// the Err-suffixed entry points and carried as the panic value by their
// legacy panicking wrappers, so callers can classify failures with
// errors.As either way.
type ConfigError struct {
	// Field names the offending input (app, arch, trials, workers, mode).
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("besst: invalid %s: %s", e.Field, e.Reason)
}

// Validate checks the configuration's standalone fields, returning a
// *ConfigError for an unknown mode or an absurd worker count. Zero and
// negative worker counts are valid (GOMAXPROCS selection).
func (c RunConfig) Validate() error {
	if c.Mode != DES && c.Mode != Direct {
		return &ConfigError{Field: "mode", Reason: fmt.Sprintf("unknown execution mode %d", c.Mode)}
	}
	if c.Workers > MaxWorkers {
		return &ConfigError{Field: "workers", Reason: fmt.Sprintf("%d workers exceeds the %d sanity bound", c.Workers, MaxWorkers)}
	}
	return nil
}

// validateTrials rejects non-positive Monte Carlo counts.
func validateTrials(n int) error {
	if n <= 0 {
		return &ConfigError{Field: "trials", Reason: fmt.Sprintf("non-positive Monte Carlo count %d", n)}
	}
	return nil
}

// CompileErr is Compile with an error return instead of a panic: nil
// app or arch, an app with no ranks and app/arch validation failures
// come back as typed errors so long-running campaign drivers can reject
// bad inputs without recovering deep in the run.
func CompileErr(app *beo.AppBEO, arch *beo.ArchBEO) (*CompiledRun, error) {
	if app == nil {
		return nil, &ConfigError{Field: "app", Reason: "nil AppBEO"}
	}
	if app.Ranks <= 0 {
		return nil, &ConfigError{Field: "app", Reason: fmt.Sprintf("non-positive rank count %d", app.Ranks)}
	}
	if arch == nil {
		return nil, &ConfigError{Field: "arch", Reason: "nil ArchBEO"}
	}
	if err := arch.Validate(app); err != nil {
		return nil, fmt.Errorf("besst: validate %q: %w", app.Name, err)
	}
	return newCompiledRun(app, arch), nil
}
