package resilience

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"besst/internal/par"
)

// RetryPolicy bounds how hard the runner fights for one trial before
// quarantining it.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per trial (default 3).
	MaxAttempts int
	// BaseBackoff is the sleep after the first failed attempt; each
	// further failure doubles it up to MaxBackoff (defaults 5ms/250ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Watchdog, when positive, bounds one attempt's wall time: an
	// attempt still running after this long is abandoned (its goroutine
	// is left to finish in the background — trial work cannot be
	// preempted) and counted as a failure.
	Watchdog time.Duration
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	return p
}

// backoff returns the sleep before retrying after failed attempt k
// (1-based): BaseBackoff doubled per further failure, capped.
func (p RetryPolicy) backoff(k int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < k && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// FaultCollector receives campaign fault-provenance callbacks. The
// interface is typed with builtins only, so the observability layer
// (internal/obs) implements it structurally without this package
// importing it. Implementations must be safe for concurrent use.
type FaultCollector interface {
	// TrialRetry reports that attempt `attempt` of trial i failed and
	// the trial will be retried.
	TrialRetry(i, attempt int)
	// TrialQuarantined reports that trial i exhausted its attempts.
	TrialQuarantined(i, attempts int)
	// TrialsReplayed reports how many completed trials a resumed
	// campaign recovered from its journal instead of re-running.
	TrialsReplayed(n int)
}

// WatchdogError marks an attempt abandoned by the per-trial watchdog.
type WatchdogError struct {
	Index   int
	Timeout time.Duration
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("resilience: trial %d exceeded the %v watchdog", e.Index, e.Timeout)
}

// TrialError is the quarantine record for one poison trial: every
// attempt failed; Last is the final attempt's error (*par.PanicError
// for panics, *WatchdogError for hangs).
type TrialError struct {
	Index    int
	Attempts int
	Last     error
}

func (e *TrialError) Error() string {
	return fmt.Sprintf("resilience: trial %d quarantined after %d attempts: %v", e.Index, e.Attempts, e.Last)
}

func (e *TrialError) Unwrap() error { return e.Last }

// Campaign configures one crash-safe campaign run. The zero value runs
// without checkpointing, chaos, or metrics — retries and panic
// isolation alone.
type Campaign struct {
	// Tool names the campaign (journal manifest, metrics document).
	Tool string
	// Path is the checkpoint journal location (conventionally
	// results/CKPT_<tool>.jsonl); empty disables checkpointing.
	Path string
	// ConfigHash fingerprints everything that determines trial results
	// (flags, app parameters, seed). Resume refuses a journal whose
	// hash differs, so stale results can never be spliced in. Build it
	// with ConfigHash.
	ConfigHash string
	// Seed is recorded in the manifest and verified on resume; it must
	// be the master seed the trial work derives from.
	Seed uint64
	// Workers bounds campaign concurrency (<= 0: GOMAXPROCS).
	Workers int
	// CkptEvery fsyncs the journal every this many completed trials
	// (<= 0: every trial), bounding work lost to a crash.
	CkptEvery int
	// Resume replays an existing journal and re-runs only the missing
	// (and previously failed) indices.
	Resume bool
	// Retry is the per-trial isolation policy.
	Retry RetryPolicy
	// Chaos, when enabled, injects deterministic faults into every
	// attempt (tests and the -chaos flag).
	Chaos ChaosConfig
	// Collector, when non-nil, receives fault-provenance callbacks.
	Collector FaultCollector
	// Cancel, when non-nil and closed, drains the campaign: trials not
	// yet started are skipped (left unrun, neither completed nor
	// quarantined) while in-flight trials finish and are journaled. A
	// drained campaign resumes exactly where it stopped — the graceful
	// SIGTERM path of besst-serve.
	Cancel <-chan struct{}
}

// Report is the campaign's explicit fault provenance: the partial
// result's caveats rather than a reason to abort.
type Report struct {
	// N is the number of trials in scope (the campaign size; the range
	// width for RunRange), Completed how many trials have payloads
	// (including replayed ones), Replayed how many came from the
	// journal.
	N, Completed, Replayed int
	// Skipped is how many trials a cancelled campaign left unrun; they
	// are re-run on resume.
	Skipped int
	// FailedIndices lists quarantined trials, ascending.
	FailedIndices []int
	// Attempts maps every trial that needed more than one attempt to
	// its total attempt count (quarantined trials included).
	Attempts map[int]int
	// Errors maps each quarantined index to its final error.
	Errors map[int]error
}

// Failed reports whether trial i was quarantined.
func (r Report) Failed(i int) bool {
	for _, f := range r.FailedIndices {
		if f == i {
			return true
		}
	}
	return false
}

// WorkFunc produces the serialized result of trial i. It must be a
// pure function of i (trial seeds pre-drawn, no shared mutable state)
// so that re-running any index after a crash — or on another worker
// count — yields the same payload bytes.
type WorkFunc func(i int) (json.RawMessage, error)

// Run executes trials [0, n) under the campaign's fault envelope and
// returns the per-index payloads (nil at quarantined indices), the
// fault report, and the first infrastructure error (journal I/O —
// trial failures are provenance, not errors).
//
// With a journal configured, every completed trial is appended as it
// finishes and fsynced every CkptEvery completions; with Resume set,
// journaled results are replayed first and only missing indices run.
// Because payloads are exact JSON and trial seeds are pre-drawn by the
// caller, a resumed campaign's payload vector is byte-identical to an
// uninterrupted run's.
func (c Campaign) Run(n int, work WorkFunc) ([]json.RawMessage, Report, error) {
	return c.RunRange(n, 0, n, work)
}

// RunRange is Run restricted to trials [lo, hi) of an n-trial campaign
// — the slice one shard of a distributed campaign executes. The
// returned payloads cover the range only (payloads[k] is trial lo+k),
// and the Report counts the range's trials; indices in it stay
// absolute. The chaos schedule and journal manifest are those of the
// whole n-trial campaign, so a trial's fault decisions are the same in
// every range geometry.
func (c Campaign) RunRange(n, lo, hi int, work WorkFunc) ([]json.RawMessage, Report, error) {
	if n <= 0 {
		return nil, Report{}, fmt.Errorf("resilience: non-positive campaign size %d", n)
	}
	if lo < 0 || hi > n || lo >= hi {
		return nil, Report{}, fmt.Errorf("resilience: range [%d, %d) outside the campaign's %d trials", lo, hi, n)
	}
	rep := Report{N: hi - lo, Attempts: map[int]int{}, Errors: map[int]error{}}
	results := make([]json.RawMessage, hi-lo)

	var journal *Journal
	if c.Path != "" {
		man := Manifest{Tool: c.Tool, ConfigHash: c.ConfigHash, Seed: c.Seed, N: n}
		if c.Resume {
			j, entries, err := Resume(c.Path, man, c.CkptEvery)
			if err != nil {
				return nil, rep, err
			}
			journal = j
			for _, e := range entries {
				if e.Index < lo || e.Index >= hi || e.Kind != EntryTrial {
					continue // failed entries are provenance; re-run them
				}
				if results[e.Index-lo] == nil {
					rep.Replayed++
				}
				results[e.Index-lo] = e.Payload
			}
			if c.Collector != nil && rep.Replayed > 0 {
				c.Collector.TrialsReplayed(rep.Replayed)
			}
		} else {
			j, err := Create(c.Path, man, c.CkptEvery)
			if err != nil {
				return nil, rep, err
			}
			journal = j
		}
	}

	// Enumerate the missing indices in order; the pool walks this list.
	missing := make([]int, 0, len(results))
	for k := range results {
		if results[k] == nil {
			missing = append(missing, lo+k)
		}
	}

	inj := c.Chaos.NewInjector(n)
	retry := c.Retry.withDefaults()
	var mu sync.Mutex // guards rep across workers
	errs := par.ForEachIsolated(c.Workers, len(missing), func(k int) error {
		i := missing[k]
		if c.cancelled() {
			return nil // drained: leave the trial unrun for resume
		}
		payload, attempts, err := c.runTrial(i, work, inj, retry)
		mu.Lock()
		if attempts > 1 {
			rep.Attempts[i] = attempts
		}
		if err != nil {
			rep.FailedIndices = append(rep.FailedIndices, i)
			rep.Errors[i] = err
		}
		mu.Unlock()
		if err != nil {
			if c.Collector != nil {
				c.Collector.TrialQuarantined(i, attempts)
			}
			if journal != nil {
				return journal.Append(Entry{Kind: EntryFailed, Index: i, Attempts: attempts, Error: err.Error()})
			}
			return nil
		}
		results[i-lo] = payload
		if journal != nil {
			return journal.Append(Entry{Kind: EntryTrial, Index: i, Attempts: attempts, Payload: payload})
		}
		return nil
	})

	var firstErr error
	for _, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if journal != nil {
		if err := journal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	sort.Ints(rep.FailedIndices)
	for _, p := range results {
		if p != nil {
			rep.Completed++
		}
	}
	rep.Skipped = rep.N - rep.Completed - len(rep.FailedIndices)
	return results, rep, firstErr
}

// cancelled reports whether the campaign's cancel channel is closed.
func (c Campaign) cancelled() bool {
	if c.Cancel == nil {
		return false
	}
	select {
	case <-c.Cancel:
		return true
	default:
		return false
	}
}

// runTrial is the per-trial fault envelope: chaos injection, recover(),
// watchdog, bounded retry with exponential backoff. It returns the
// payload, the number of attempts consumed, and the final error when
// every attempt failed.
func (c Campaign) runTrial(i int, work WorkFunc, inj *Injector, retry RetryPolicy) (json.RawMessage, int, error) {
	var last error
	for attempt := 1; attempt <= retry.MaxAttempts; attempt++ {
		payload, err := c.runAttempt(i, attempt, work, inj, retry.Watchdog)
		if err == nil {
			return payload, attempt, nil
		}
		last = err
		if attempt < retry.MaxAttempts {
			if c.Collector != nil {
				c.Collector.TrialRetry(i, attempt)
			}
			time.Sleep(retry.backoff(attempt))
		}
	}
	return nil, retry.MaxAttempts, &TrialError{Index: i, Attempts: retry.MaxAttempts, Last: last}
}

// runAttempt executes one guarded attempt: panics become errors, and a
// positive watchdog abandons attempts that outlive it.
func (c Campaign) runAttempt(i, attempt int, work WorkFunc, inj *Injector, watchdog time.Duration) (json.RawMessage, error) {
	guarded := func() (payload json.RawMessage, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &par.PanicError{Index: i, Value: r}
			}
		}()
		inj.Inject(i, attempt)
		return work(i)
	}
	if watchdog <= 0 {
		return guarded()
	}
	type outcome struct {
		payload json.RawMessage
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		p, err := guarded()
		done <- outcome{p, err}
	}()
	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	select {
	case o := <-done:
		return o.payload, o.err
	case <-timer.C:
		return nil, &WatchdogError{Index: i, Timeout: watchdog}
	}
}

// ConfigHash fingerprints a campaign configuration: every value that
// influences trial results should be included, in a fixed order. The
// result is a short hex digest for the journal manifest.
func ConfigHash(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		_, _ = fmt.Fprintf(h, "%v\x00", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Decode unmarshals each non-nil payload into a fresh T, returning the
// per-index values (nil at quarantined indices). It is the generic
// bridge from journal payloads back to typed results; float64 fields
// survive exactly because encoding/json emits shortest round-trippable
// representations.
func Decode[T any](payloads []json.RawMessage) ([]*T, error) {
	out := make([]*T, len(payloads))
	for i, p := range payloads {
		if p == nil {
			continue
		}
		v := new(T)
		if err := json.Unmarshal(p, v); err != nil {
			return nil, fmt.Errorf("resilience: decode payload %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
