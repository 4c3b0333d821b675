package besst

import "fmt"

// SpecSchemaVersion is bumped whenever RunSpec's serialized layout
// changes incompatibly, so services and tooling can reject documents
// they do not understand (the gem5-style standardization of the
// request/result schema).
const SpecSchemaVersion = 1

// RunSpec is the canonical serialized form of RunConfig: the one
// schema_version-ed struct shared by CLI -json output and the besst-serve
// HTTP API. It carries exactly the fields that influence result bytes —
// instrumentation (Tracer, Collector) is attached at execution time and
// never serialized. A zero Seed means "unpinned": services derive the
// effective seed deterministically from the request hash so every
// response stays byte-reproducible.
type RunSpec struct {
	SchemaVersion int `json:"schema_version"`
	// Mode is the execution mode name: "des" (default) or "direct".
	Mode string `json:"mode,omitempty"`
	// MonteCarlo enables sampling from each model's distribution.
	MonteCarlo bool `json:"monte_carlo,omitempty"`
	// Seed is the master random seed (0: derive from the request hash).
	Seed uint64 `json:"seed,omitempty"`
	// PerRankNoise enables independent per-rank compute noise in
	// Direct mode; DES ignores it (see RunConfig.PerRankNoise).
	PerRankNoise bool `json:"per_rank_noise,omitempty"`
	// Workers bounds replication concurrency. It is part of the spec
	// because it is part of RunConfig, but results are byte-identical
	// for every value.
	Workers int `json:"workers,omitempty"`
}

// String names the mode for serialization and CLI flags.
func (m Mode) String() string {
	switch m {
	case DES:
		return "des"
	case Direct:
		return "direct"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode resolves a mode name ("des" or "direct"; "" selects DES,
// the zero value) to its Mode, with a *ConfigError for anything else.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "des", "":
		return DES, nil
	case "direct":
		return Direct, nil
	default:
		return DES, &ConfigError{Field: "mode", Reason: fmt.Sprintf("unknown execution mode %q", name)}
	}
}

// Spec converts the configuration to its canonical serialized form.
func (c RunConfig) Spec() RunSpec {
	return RunSpec{
		SchemaVersion: SpecSchemaVersion,
		Mode:          c.Mode.String(),
		MonteCarlo:    c.MonteCarlo,
		Seed:          c.Seed,
		PerRankNoise:  c.PerRankNoise,
		Workers:       c.Workers,
	}
}

// Config converts the serialized spec back to a RunConfig, validating
// the schema version, the mode name, and the standalone RunConfig
// fields through the exact Validate path the CLIs use.
func (s RunSpec) Config() (RunConfig, error) {
	if s.SchemaVersion != 0 && s.SchemaVersion != SpecSchemaVersion {
		return RunConfig{}, &ConfigError{
			Field:  "schema_version",
			Reason: fmt.Sprintf("unsupported run spec version %d (want %d)", s.SchemaVersion, SpecSchemaVersion),
		}
	}
	mode, err := ParseMode(s.Mode)
	if err != nil {
		return RunConfig{}, err
	}
	cfg := RunConfig{
		Mode:         mode,
		MonteCarlo:   s.MonteCarlo,
		Seed:         s.Seed,
		PerRankNoise: s.PerRankNoise,
		Workers:      s.Workers,
	}
	if err := cfg.Validate(); err != nil {
		return RunConfig{}, err
	}
	return cfg, nil
}
