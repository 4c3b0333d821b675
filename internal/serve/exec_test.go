package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"besst/internal/obs"
)

// TestSingleCampaignResultPinned pins the result bytes of kind-single
// campaigns in both execution modes. Single runs seed from RunWith
// (the master seed itself, not a SeedFan draw), so a change that
// routed them through TrialRunner would move these hashes.
func TestSingleCampaignResultPinned(t *testing.T) {
	cases := []struct {
		name, body, sha string
	}{
		{"direct", `{
  "schema_version": 1,
  "kind": "single",
  "run": {"mode": "direct", "monte_carlo": true, "per_rank_noise": true, "seed": 11},
  "app": {"epr": 4, "ranks": 8, "steps": 10, "scenario": "l1l2", "period": 5},
  "model": {"method": "interp", "samples": 2, "seed": 1}
}`, "9d680e8f8540a75efb009f2e973e804881d81ebf87a6a814ee1e597c81086bc4"},
		{"des", `{
  "schema_version": 1,
  "kind": "single",
  "run": {"mode": "des", "per_rank_noise": true, "monte_carlo": true},
  "app": {"epr": 5, "ranks": 8, "steps": 10, "scenario": "l1", "period": 4},
  "model": {"method": "interp", "samples": 2, "seed": 1}
}`, "ff5fb8c830be23deb2e7b4827d81a971a819d282951cef4b3174bef31238b5ec"},
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := runToResult(t, ts.URL, tc.body)
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Fatalf("single %s result sha256 %s, want %s\n%s", tc.name, got, tc.sha, body)
			}
		})
	}
}

// TestQuarantineParity drives the shared unit work, with one unit that
// panics and one whose payload json.Marshal rejects (a NaN mean),
// through both fault envelopes: the server's campaign (journal-ready,
// three attempts) over [0, n), and the worker's (one attempt) over two
// shards whose payloads cross a JSON wire. Both must quarantine the
// same units and assemble byte-identical documents.
func TestQuarantineParity(t *testing.T) {
	const poison, broken = 1, 3
	srv := NewServer(Config{Workers: 2})
	t.Cleanup(srv.Drain)
	x := NewShardExecutor(ExecConfig{Workers: 2})

	for _, tc := range []struct {
		body string
		want []int
	}{
		{mcRequest, []int{poison, broken}},
		// Points 6 and 7 (27 ranks under L1) are genuinely poison: FTI
		// rejects a rank count that is not a multiple of its group.
		{sweepRequest, []int{poison, broken, 6, 7}},
	} {
		p, err := ParsePlan([]byte(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		pl, n := p.pl, p.Units()
		work, _, err := srv.arts.unitWork(pl, nil)
		if err != nil {
			t.Fatal(err)
		}
		faulty := func(i int) (json.RawMessage, error) {
			switch i {
			case poison:
				panic(fmt.Sprintf("poison unit %d", i))
			case broken:
				return json.Marshal(math.NaN())
			}
			return work(i)
		}

		local, _, err := srv.campaignFor(&campaign{plan: pl, collector: obs.NewCollector()}).Run(n, faulty)
		if err != nil {
			t.Fatal(err)
		}
		localBody, err := pl.assemble(local)
		if err != nil {
			t.Fatalf("%s: assemble local: %v", pl.req.Kind, err)
		}

		var sharded []json.RawMessage
		for _, r := range [][2]int{{0, 2}, {2, n}} {
			part, _, err := x.campaign().RunRange(n, r[0], r[1], faulty)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := json.Marshal(part)
			if err != nil {
				t.Fatal(err)
			}
			var got []json.RawMessage
			if err := json.Unmarshal(wire, &got); err != nil {
				t.Fatal(err)
			}
			sharded = append(sharded, got...)
		}
		shardBody, err := pl.assemble(sharded)
		if err != nil {
			t.Fatalf("%s: assemble shards: %v", pl.req.Kind, err)
		}

		if !bytes.Equal(localBody, shardBody) {
			t.Fatalf("%s: local and sharded documents differ:\n%s\nvs\n%s", pl.req.Kind, localBody, shardBody)
		}
		var doc CampaignResult
		if err := json.Unmarshal(localBody, &doc); err != nil {
			t.Fatal(err)
		}
		failed := doc.FailedTrials
		if pl.req.Kind == KindSweep {
			failed = doc.FailedPoints
		}
		if fmt.Sprint(failed) != fmt.Sprint(tc.want) {
			t.Fatalf("%s: quarantined units %v, want %v", pl.req.Kind, failed, tc.want)
		}
	}
}
