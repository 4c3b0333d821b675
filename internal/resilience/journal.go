// Package resilience makes the simulator's own long-running campaigns
// fault tolerant — the paper's FT-awareness applied to the tool itself.
// A Monte Carlo or DSE campaign that used to die irrecoverably on a
// panic, an OOM-killed worker, or a Ctrl-C now (1) checkpoints every
// completed trial to an append-only JSONL journal so `-resume` re-runs
// only the missing indices, (2) isolates each trial behind recover()
// with bounded retries, exponential backoff, and a watchdog timeout so
// one poison trial degrades the campaign to a partial result instead of
// aborting it, and (3) can be stress-tested by a deterministic chaos
// injector that plants panics and delays at configurable rates.
//
// The determinism contract of internal/par makes crash recovery exact:
// per-index seeds are pre-drawn before any work starts, so a trial
// re-run after a crash consumes the same random stream it would have in
// the original process, and a resumed campaign's final output is
// byte-identical to an uninterrupted run.
package resilience

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"besst/internal/jsonl"
)

// JournalSchemaVersion is bumped whenever the journal line layout
// changes incompatibly; Resume rejects journals from other versions.
const JournalSchemaVersion = 1

// Sentinel errors of the journal layer, wrapped with detail; classify
// with errors.Is.
var (
	// ErrNoManifest marks a journal whose first line is missing or not
	// a manifest record.
	ErrNoManifest = errors.New("resilience: journal has no manifest")
	// ErrManifestMismatch marks a resume attempt against a journal
	// written by a different campaign configuration.
	ErrManifestMismatch = errors.New("resilience: journal manifest does not match campaign")
	// ErrCorruptJournal marks undecodable journal content before the
	// final line (a torn final line is tolerated, not an error).
	ErrCorruptJournal = errors.New("resilience: corrupt journal")
)

// Manifest identifies the campaign a journal belongs to. Resume
// verifies every field, so results from a different configuration,
// seed, or trial count can never be silently spliced into a campaign.
type Manifest struct {
	Kind          string `json:"kind"` // always "manifest"
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"`
	ConfigHash    string `json:"config_hash"`
	Seed          uint64 `json:"seed"`
	N             int    `json:"n"`
}

// matches reports whether two manifests describe the same campaign.
func (m Manifest) matches(other Manifest) bool {
	return m.SchemaVersion == other.SchemaVersion && m.Tool == other.Tool &&
		m.ConfigHash == other.ConfigHash && m.Seed == other.Seed && m.N == other.N
}

// Entry kinds.
const (
	// EntryTrial records one completed trial with its payload.
	EntryTrial = "trial"
	// EntryFailed records a quarantined trial: no payload, but explicit
	// provenance (attempt count, final error). On resume, failed trials
	// are re-run — the crash cause may be gone.
	EntryFailed = "failed"
)

// Entry is one journal line after the manifest.
type Entry struct {
	Kind     string          `json:"kind"`
	Index    int             `json:"index"`
	Attempts int             `json:"attempts,omitempty"`
	Error    string          `json:"error,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
}

// Journal is an append-only campaign checkpoint log: one JSON document
// per line, a manifest first, then one entry per completed (or
// quarantined) trial. Appends are buffered and fsynced every
// `every` entries, so at most that many trials can be lost to a crash.
// All methods are safe for concurrent use.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	w     *bufio.Writer
	every int
	since int // appends since the last fsync
}

// JournalPath returns the conventional journal filename for a tool,
// e.g. JournalPath("results", "besst-sim") = "results/CKPT_besst-sim.jsonl".
func JournalPath(dir, tool string) string {
	return filepath.Join(dir, fmt.Sprintf("CKPT_%s.jsonl", tool))
}

// Create atomically creates a fresh journal at path holding only the
// manifest: the manifest line is written to a temp file, fsynced, and
// renamed into place, so a crash during creation leaves either no
// journal or a valid one — never a torn manifest. ckptEvery <= 0
// fsyncs every append.
func Create(path string, m Manifest, ckptEvery int) (*Journal, error) {
	m.Kind = "manifest"
	m.SchemaVersion = JournalSchemaVersion
	dir := filepath.Dir(path)
	if dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("resilience: mkdir %s: %w", dir, err)
		}
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return nil, fmt.Errorf("resilience: create journal temp: %w", err)
	}
	line, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("resilience: marshal manifest: %w", err)
	}
	line = append(line, '\n')
	if _, err := tmp.Write(line); err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = tmp.Close()
	}
	if err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return nil, fmt.Errorf("resilience: write manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return nil, fmt.Errorf("resilience: install journal: %w", err)
	}
	syncDir(dir)
	return openAppend(path, int64(len(line)), ckptEvery)
}

// Resume opens an existing journal for appending, verifying its
// manifest against m and replaying its entries. The torn tail a crash
// can leave — a partially written final line — is tolerated: it is
// truncated away before appending resumes, so the journal stays a
// sequence of whole lines. If no journal exists at path, Resume
// creates a fresh one and returns no entries.
func Resume(path string, m Manifest, ckptEvery int) (*Journal, []Entry, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		j, cerr := Create(path, m, ckptEvery)
		return j, nil, cerr
	}
	m.Kind = "manifest"
	m.SchemaVersion = JournalSchemaVersion
	got, entries, validLen, err := ReadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if !got.matches(m) {
		return nil, nil, fmt.Errorf("%w: journal %+v vs campaign %+v", ErrManifestMismatch, *got, m)
	}
	j, err := openAppend(path, validLen, ckptEvery)
	if err != nil {
		return nil, nil, err
	}
	return j, entries, nil
}

// openAppend opens the journal for appending after truncating it to
// its validLen-byte valid prefix.
func openAppend(path string, validLen int64, ckptEvery int) (*Journal, error) {
	f, err := jsonl.OpenAppend(path, validLen)
	if err != nil {
		return nil, fmt.Errorf("resilience: open journal: %w", err)
	}
	if ckptEvery <= 0 {
		ckptEvery = 1
	}
	return &Journal{f: f, w: bufio.NewWriter(f), every: ckptEvery}, nil
}

// Append persists one entry. The write is buffered; every `every`
// appends the buffer is flushed and fsynced so completed trials are
// durable against a crash.
func (j *Journal) Append(e Entry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("resilience: marshal entry %d: %w", e.Index, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("resilience: append entry %d: %w", e.Index, err)
	}
	j.since++
	if j.since >= j.every {
		j.since = 0
		if err := j.w.Flush(); err != nil {
			return fmt.Errorf("resilience: flush journal: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("resilience: fsync journal: %w", err)
		}
	}
	return nil
}

// Close flushes, fsyncs, and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	ferr := j.w.Flush()
	serr := j.f.Sync()
	cerr := j.f.Close()
	if ferr != nil {
		return fmt.Errorf("resilience: flush journal: %w", ferr)
	}
	if serr != nil {
		return fmt.Errorf("resilience: fsync journal: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("resilience: close journal: %w", cerr)
	}
	return nil
}

// ReadJournal parses a journal file: the manifest, every decodable
// entry, and the byte length of the valid prefix. A torn tail — any
// undecodable or unterminated content after the last whole valid line,
// the signature a SIGKILL mid-append leaves — is tolerated: parsing
// stops there and validLen marks where appending may safely resume
// (jsonl.Lines). Only a missing or undecodable manifest line is an
// error.
func ReadJournal(path string) (m *Manifest, entries []Entry, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("resilience: read journal: %w", err)
	}
	validLen = jsonl.Lines(data, func(line []byte) bool {
		if m == nil {
			var man Manifest
			if json.Unmarshal(line, &man) != nil || man.Kind != "manifest" {
				return false
			}
			m = &man
			return true
		}
		var e Entry
		if json.Unmarshal(line, &e) != nil || (e.Kind != EntryTrial && e.Kind != EntryFailed) {
			return false // torn or corrupt tail: stop at the last whole valid line
		}
		entries = append(entries, e)
		return true
	})
	if m == nil {
		return nil, nil, 0, fmt.Errorf("%w: %s: no whole manifest line first", ErrNoManifest, path)
	}
	return m, entries, validLen, nil
}

// syncDir best-effort fsyncs a directory so a freshly renamed journal
// survives a crash of the directory metadata. Errors are ignored: not
// every platform or filesystem supports directory fsync, and the
// rename itself is already atomic.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
