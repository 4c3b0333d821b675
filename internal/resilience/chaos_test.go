package resilience

import (
	"encoding/json"
	"testing"

	"besst/internal/obs"
)

// TestChaosCampaignSurvivesInjection runs 100 trials at 10% panic and
// 10% delay rates and asserts: every non-quarantined trial's payload
// matches the chaos-free reference byte for byte, quarantines are rare
// (three failures in a row at 10% is a 0.1% event per trial), and the
// fault provenance lands in the metrics snapshot.
func TestChaosCampaignSurvivesInjection(t *testing.T) {
	const n = 100
	work := fakeWork(21, n)
	ref, _, err := Campaign{Workers: 1}.Run(n, work)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		col := obs.NewCollector()
		camp := Campaign{
			Workers:     workers,
			MaxAttempts: 3,
			Chaos: ChaosConfig{
				PanicRate: 0.10,
				DelayRate: 0.10,
				Seed:      777,
			},
			Collector: col,
		}
		payloads, rep, err := camp.Run(n, work)
		if err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		if rep.Completed+len(rep.FailedIndices) != n {
			t.Fatalf("workers=%d: completed %d + failed %d != %d", workers, rep.Completed, len(rep.FailedIndices), n)
		}
		if len(rep.FailedIndices) > n/10 {
			t.Errorf("workers=%d: %d quarantines at 10%% rate with 3 attempts — injector is not retrying", workers, len(rep.FailedIndices))
		}
		if len(rep.Attempts) == 0 {
			t.Errorf("workers=%d: no retries recorded at 10%% panic rate over %d trials", workers, n)
		}
		for i := 0; i < n; i++ {
			if rep.Failed(i) {
				if payloads[i] != nil {
					t.Errorf("workers=%d: quarantined trial %d has a payload", workers, i)
				}
				continue
			}
			if string(payloads[i]) != string(ref[i]) {
				t.Errorf("workers=%d: trial %d payload corrupted by chaos:\n  %s\n  %s", workers, i, payloads[i], ref[i])
			}
		}
		// The injected fault schedule is a pure function of (seed, index,
		// attempt), so provenance must agree across worker counts.
		m := col.Snapshot("chaos-test")
		if len(m.TrialRetries) != len(rep.Attempts)-len(rep.FailedIndices) && len(m.TrialRetries) == 0 {
			t.Errorf("workers=%d: metrics snapshot lost retry provenance", workers)
		}
		for _, idx := range rep.FailedIndices {
			found := false
			for _, fi := range m.FailedIndices {
				if fi == idx {
					found = true
				}
			}
			if !found {
				t.Errorf("workers=%d: quarantined trial %d missing from metrics failed_indices", workers, idx)
			}
		}
	}
}

// TestChaosScheduleDeterministic asserts the same chaos config yields
// the same quarantine set and attempt counts on repeated runs.
func TestChaosScheduleDeterministic(t *testing.T) {
	const n = 60
	work := fakeWork(4, n)
	run := func() ([]int, map[int]int) {
		camp := Campaign{
			Workers:     4,
			MaxAttempts: 2,
			Chaos:       ChaosConfig{PanicRate: 0.25, Seed: 31},
		}
		_, rep, err := camp.Run(n, work)
		if err != nil {
			t.Fatal(err)
		}
		return rep.FailedIndices, rep.Attempts
	}
	f1, a1 := run()
	f2, a2 := run()
	if len(f1) != len(f2) {
		t.Fatalf("quarantine sets differ: %v vs %v", f1, f2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("quarantine sets differ: %v vs %v", f1, f2)
		}
	}
	if len(a1) != len(a2) {
		t.Fatalf("attempt maps differ: %v vs %v", a1, a2)
	}
	for k, v := range a1 {
		if a2[k] != v {
			t.Fatalf("attempt maps differ at %d: %d vs %d", k, v, a2[k])
		}
	}
	if len(f1) == 0 {
		t.Error("25% panic rate with 2 attempts over 60 trials quarantined nothing — injector inert")
	}
}

// TestChaosZeroValueInjectsNothing pins the off switch.
func TestChaosZeroValueInjectsNothing(t *testing.T) {
	if (ChaosConfig{}).NewInjector(4) != nil {
		t.Error("zero ChaosConfig built an injector")
	}
	var in *Injector
	in.Inject(0, 1) // nil receiver must be a no-op, not a crash
}

// TestChaosPanicValueIsRecognizable pins the quarantine provenance of
// an injected panic.
func TestChaosPanicValueIsRecognizable(t *testing.T) {
	work := func(i int) (json.RawMessage, error) { return json.RawMessage(`1`), nil }
	camp := Campaign{
		Workers:     1,
		MaxAttempts: 1,
		Chaos:       ChaosConfig{PanicRate: 1.0, Seed: 1},
	}
	_, rep, err := camp.Run(3, work)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FailedIndices) != 3 {
		t.Fatalf("PanicRate=1 quarantined %d of 3", len(rep.FailedIndices))
	}
	if rep.Errors[0] == nil || rep.Errors[0].Error() == "" {
		t.Fatal("no quarantine error recorded")
	}
}

// TestChaosKillDeterministicSchedule pins the kill decision stream: a
// KillRate config with an overridden Kill hook fires on the same
// (index, attempt) pairs on every run, and never fires at rate zero.
func TestChaosKillDeterministicSchedule(t *testing.T) {
	const n = 50
	schedule := func() []int {
		var fired []int
		cur := -1
		in := ChaosConfig{
			KillRate: 0.2,
			Seed:     99,
			Kill:     func() { fired = append(fired, cur) },
		}.NewInjector(n)
		if in == nil {
			t.Fatal("KillRate>0 config built no injector")
		}
		for i := 0; i < n; i++ {
			cur = i
			in.Inject(i, 1)
		}
		return fired
	}
	s1, s2 := schedule(), schedule()
	if len(s1) == 0 {
		t.Fatal("20% kill rate over 50 trials fired nothing — injector inert")
	}
	if len(s1) != len(s2) {
		t.Fatalf("kill schedules differ: %v vs %v", s1, s2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("kill schedules differ: %v vs %v", s1, s2)
		}
	}
}
