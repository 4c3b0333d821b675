package resilience

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"besst/internal/par"
	"besst/internal/stats"
)

// fakeWork returns a deterministic payload for trial i derived from a
// seed fan — the same purity contract real trial runners obey.
func fakeWork(seed uint64, n int) WorkFunc {
	seeds := par.SeedFan(seed, n)
	return func(i int) (json.RawMessage, error) {
		rng := stats.NewRNG(seeds[i])
		return json.Marshal(map[string]float64{"x": rng.Float64(), "y": rng.Float64()})
	}
}

// flakyWork wraps a WorkFunc so chosen indices panic on their first
// `failures` attempts, tracked per index.
type flakyWork struct {
	mu       sync.Mutex
	calls    map[int]int
	failures map[int]int // index -> attempts that must fail (-1: always)
	inner    WorkFunc
}

func newFlakyWork(inner WorkFunc, failures map[int]int) *flakyWork {
	return &flakyWork{calls: map[int]int{}, failures: failures, inner: inner}
}

func (f *flakyWork) work(i int) (json.RawMessage, error) {
	f.mu.Lock()
	f.calls[i]++
	call := f.calls[i]
	limit, flaky := f.failures[i]
	f.mu.Unlock()
	if flaky && (limit < 0 || call <= limit) {
		panic(fmt.Sprintf("flaky trial %d call %d", i, call))
	}
	return f.inner(i)
}

func (f *flakyWork) callCount(i int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[i]
}

// provenanceRecorder implements FaultCollector for assertions.
type provenanceRecorder struct {
	mu          sync.Mutex
	retries     map[int]int
	quarantined map[int]int
	replayed    int
}

func newProvenanceRecorder() *provenanceRecorder {
	return &provenanceRecorder{retries: map[int]int{}, quarantined: map[int]int{}}
}

func (p *provenanceRecorder) TrialRetry(i, attempt int) {
	p.mu.Lock()
	if attempt > p.retries[i] {
		p.retries[i] = attempt
	}
	p.mu.Unlock()
}

func (p *provenanceRecorder) TrialQuarantined(i, attempts int) {
	p.mu.Lock()
	p.quarantined[i] = attempts
	p.mu.Unlock()
}

func (p *provenanceRecorder) TrialsReplayed(n int) {
	p.mu.Lock()
	p.replayed += n
	p.mu.Unlock()
}

func samePayloads(t *testing.T, label string, a, b []json.RawMessage) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d payloads", label, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("%s: payload %d differs:\n  %s\n  %s", label, i, a[i], b[i])
		}
	}
}

// TestBackoffDoublesToCap pins the retry delay the campaign runner and
// the distributed coordinator share: base after the first failure,
// doubling per further failure, never above the cap.
func TestBackoffDoublesToCap(t *testing.T) {
	for _, c := range []struct {
		failures int
		want     time.Duration
	}{{1, 5}, {2, 10}, {3, 20}, {4, 40}, {5, 50}, {100, 50}} {
		if got := Backoff(5, 50, c.failures); got != c.want {
			t.Errorf("Backoff(5, 50, %d) = %v, want %v", c.failures, got, c.want)
		}
	}
}

func TestRunRetriesTransientAndQuarantinesPoison(t *testing.T) {
	const n = 16
	work := newFlakyWork(fakeWork(7, n), map[int]int{3: 2, 9: -1})
	rec := newProvenanceRecorder()
	camp := Campaign{Workers: 4, MaxAttempts: 3, Collector: rec}
	payloads, rep, err := camp.Run(n, work.work)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed != n-1 || len(rep.FailedIndices) != 1 || rep.FailedIndices[0] != 9 {
		t.Fatalf("report = %+v, want completed=%d failed=[9]", rep, n-1)
	}
	if payloads[9] != nil {
		t.Error("quarantined trial has a payload")
	}
	if payloads[3] == nil {
		t.Error("retried trial 3 has no payload")
	}
	if got := work.callCount(3); got != 3 {
		t.Errorf("trial 3 ran %d times, want 3 (2 failures + success)", got)
	}
	if got := work.callCount(9); got != 3 {
		t.Errorf("trial 9 ran %d times, want MaxAttempts=3", got)
	}
	if rep.Attempts[3] != 3 || rep.Attempts[9] != 3 {
		t.Errorf("Attempts = %v, want 3 for trials 3 and 9", rep.Attempts)
	}
	var te *TrialError
	if !errors.As(rep.Errors[9], &te) || te.Index != 9 {
		t.Errorf("Errors[9] = %v, want *TrialError for index 9", rep.Errors[9])
	}
	var pe *par.PanicError
	if !errors.As(rep.Errors[9], &pe) {
		t.Errorf("quarantine cause %v does not unwrap to *par.PanicError", rep.Errors[9])
	}
	if rec.retries[3] == 0 || rec.quarantined[9] != 3 {
		t.Errorf("collector provenance retries=%v quarantined=%v", rec.retries, rec.quarantined)
	}
	if !rep.Failed(9) || rep.Failed(3) {
		t.Error("Report.Failed classification wrong")
	}
}

// TestRunPayloadsIndependentOfWorkers asserts the fault envelope keeps
// the determinism contract: same payload vector at 1 and 8 workers,
// with or without a journal.
func TestRunPayloadsIndependentOfWorkers(t *testing.T) {
	const n = 32
	work := fakeWork(99, n)
	ref, rep, err := Campaign{Workers: 1}.Run(n, work)
	if err != nil || rep.Completed != n {
		t.Fatalf("reference run: %+v, %v", rep, err)
	}
	for _, workers := range []int{1, 8} {
		path := filepath.Join(t.TempDir(), "CKPT_w.jsonl")
		camp := Campaign{Tool: "w", Path: path, ConfigHash: "h", Seed: 99, Workers: workers, CkptEvery: 4}
		got, rep, err := camp.Run(n, work)
		if err != nil || rep.Completed != n {
			t.Fatalf("workers=%d: %+v, %v", workers, rep, err)
		}
		samePayloads(t, fmt.Sprintf("workers=%d", workers), ref, got)
	}
}

// TestResumeReRunsOnlyMissing interrupts a campaign after k journaled
// trials, resumes, and asserts (a) only the missing indices re-ran,
// (b) the final payload vector is byte-identical to an uninterrupted
// run, (c) replay provenance is reported.
func TestResumeReRunsOnlyMissing(t *testing.T) {
	const n, k = 20, 8
	work := fakeWork(5, n)
	ref, _, err := Campaign{Workers: 1}.Run(n, work)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "CKPT_r.jsonl")
	man := Manifest{Tool: "r", ConfigHash: "h", Seed: 5, N: n}
	j, err := Create(path, man, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		p, _ := work(i)
		if err := j.Append(Entry{Kind: EntryTrial, Index: i, Attempts: 1, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	// A journaled failure must be re-run on resume, not replayed.
	if err := j.Append(Entry{Kind: EntryFailed, Index: k, Attempts: 3, Error: "earlier crash"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	ran := map[int]bool{}
	var mu sync.Mutex
	counting := func(i int) (json.RawMessage, error) {
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		return work(i)
	}
	rec := newProvenanceRecorder()
	camp := Campaign{Tool: "r", Path: path, ConfigHash: "h", Seed: 5, Workers: 4, Resume: true, Collector: rec}
	got, rep, err := camp.Run(n, counting)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	samePayloads(t, "resume", ref, got)
	if rep.Replayed != k || rec.replayed != k {
		t.Errorf("Replayed = %d (collector %d), want %d", rep.Replayed, rec.replayed, k)
	}
	for i := 0; i < k; i++ {
		if ran[i] {
			t.Errorf("journaled trial %d re-ran", i)
		}
	}
	for i := k; i < n; i++ {
		if !ran[i] {
			t.Errorf("missing trial %d did not run", i)
		}
	}
	if rep.Completed != n {
		t.Errorf("Completed = %d, want %d", rep.Completed, n)
	}
}

// TestResumeAfterTornAppend simulates a crash mid-append (torn last
// line) and asserts resume still converges to the reference output.
func TestResumeAfterTornAppend(t *testing.T) {
	const n = 10
	work := fakeWork(13, n)
	ref, _, err := Campaign{Workers: 1}.Run(n, work)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "CKPT_t.jsonl")
	camp := Campaign{Tool: "t", Path: path, ConfigHash: "h", Seed: 13, Workers: 1}
	if _, _, err := camp.Run(n, work); err != nil {
		t.Fatal(err)
	}
	// Tear the last line: drop its final 7 bytes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	camp.Resume = true
	got, rep, err := camp.Run(n, work)
	if err != nil {
		t.Fatalf("resume after torn append: %v", err)
	}
	samePayloads(t, "torn", ref, got)
	if rep.Replayed >= n || rep.Replayed == 0 {
		t.Errorf("Replayed = %d, want in (0, %d)", rep.Replayed, n)
	}
}

// TestRunRangeMatchesRun splits a chaos-injected campaign into index
// ranges and requires the concatenated payloads and quarantined
// indices to equal one whole-campaign run: chaos is keyed by the
// absolute trial index, so a shard geometry never moves a fault.
func TestRunRangeMatchesRun(t *testing.T) {
	const n = 24
	camp := Campaign{
		Workers:     2,
		MaxAttempts: 1,
		Chaos:       ChaosConfig{PanicRate: 0.3, Seed: 5},
	}
	work := fakeWork(3, n)
	ref, refRep, err := camp.Run(n, work)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRep.FailedIndices) == 0 || len(refRep.FailedIndices) == n {
		t.Fatalf("chaos schedule quarantined %d of %d trials; want some but not all", len(refRep.FailedIndices), n)
	}
	for _, bounds := range [][]int{{0, n}, {0, 5, n}, {0, 1, 9, 17, n}} {
		var got []json.RawMessage
		var failed []int
		for k := 0; k+1 < len(bounds); k++ {
			lo, hi := bounds[k], bounds[k+1]
			part, rep, err := camp.RunRange(n, lo, hi, work)
			if err != nil {
				t.Fatalf("range [%d, %d): %v", lo, hi, err)
			}
			if rep.N != hi-lo || len(part) != hi-lo {
				t.Fatalf("range [%d, %d): N=%d, %d payloads", lo, hi, rep.N, len(part))
			}
			got = append(got, part...)
			failed = append(failed, rep.FailedIndices...)
		}
		label := fmt.Sprintf("bounds %v", bounds)
		samePayloads(t, label, ref, got)
		if fmt.Sprint(failed) != fmt.Sprint(refRep.FailedIndices) {
			t.Fatalf("%s: quarantined %v, whole run quarantined %v", label, failed, refRep.FailedIndices)
		}
	}
	for _, r := range [][2]int{{-1, 3}, {3, 3}, {4, 2}, {0, n + 1}} {
		if _, _, err := camp.RunRange(n, r[0], r[1], work); err == nil {
			t.Errorf("RunRange(%d, %d, %d) succeeded", n, r[0], r[1])
		}
	}
}

func TestRunRejectsNonPositiveN(t *testing.T) {
	if _, _, err := (Campaign{}).Run(0, fakeWork(1, 1)); err == nil {
		t.Error("Run(0) succeeded")
	}
}

func TestDecode(t *testing.T) {
	type point struct {
		X float64 `json:"x"`
	}
	payloads := []json.RawMessage{json.RawMessage(`{"x":1.5}`), nil, json.RawMessage(`{"x":-2}`)}
	vals, err := Decode[point](payloads)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] == nil || vals[0].X != 1.5 || vals[1] != nil || vals[2] == nil || vals[2].X != -2 {
		t.Errorf("Decode = %+v", vals)
	}
	if _, err := Decode[point]([]json.RawMessage{json.RawMessage(`{`)}); err == nil {
		t.Error("Decode accepted malformed payload")
	}
}

// TestRunCancelDrainsAndResumes proves the graceful-drain contract: a
// campaign cancelled mid-run journals what completed, skips the rest
// without quarantining anything, and a resumed campaign finishes with
// payloads byte-identical to an uninterrupted run.
func TestRunCancelDrainsAndResumes(t *testing.T) {
	const n = 16
	path := filepath.Join(t.TempDir(), "CKPT_cancel.jsonl")
	camp := Campaign{
		Tool: "cancel", Path: path, ConfigHash: "cancel-v1", Seed: 9,
		Workers: 1, CkptEvery: 1,
	}

	ref, rep, err := Campaign{Workers: 1}.Run(n, fakeWork(9, n))
	if err != nil || rep.Completed != n {
		t.Fatalf("reference: %+v, %v", rep, err)
	}

	// Cancel after the 5th trial completes: the work func closes the
	// channel itself, so the cut point is deterministic.
	cancel := make(chan struct{})
	inner := fakeWork(9, n)
	var ran int
	interrupted := camp
	interrupted.Cancel = cancel
	payloads, rep, err := interrupted.Run(n, func(i int) (json.RawMessage, error) {
		ran++
		if ran == 5 {
			close(cancel)
		}
		return inner(i)
	})
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if rep.Completed != 5 || rep.Skipped != n-5 || len(rep.FailedIndices) != 0 {
		t.Fatalf("drain report: %+v", rep)
	}
	for i, p := range payloads {
		if (p != nil) != (i < 5) {
			t.Fatalf("payload %d presence = %v", i, p != nil)
		}
	}

	// Resume with no cancel channel: only the skipped trials run, and
	// the payload vector matches the uninterrupted reference exactly.
	resumed := camp
	resumed.Resume = true
	payloads, rep, err = resumed.Run(n, fakeWork(9, n))
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rep.Completed != n || rep.Replayed != 5 || rep.Skipped != 0 {
		t.Fatalf("resume report: %+v", rep)
	}
	for i := range ref {
		if string(payloads[i]) != string(ref[i]) {
			t.Fatalf("trial %d: resumed payload %s != reference %s", i, payloads[i], ref[i])
		}
	}
}
