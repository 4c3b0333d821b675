package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"besst/internal/serve"
)

// listDigest hashes a request list's bodies and roles.
func listDigest(reqs []Request) string {
	h := sha256.New()
	for _, r := range reqs {
		h.Write([]byte(r.Role))
		h.Write(r.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorPinned pins each workload's first requests at the default
// seed: a change to the generator changes the benchmark's inputs and
// must show up here.
func TestGeneratorPinned(t *testing.T) {
	want := map[string]string{
		"mc-des-dist": "f5e7c86df456bac8c6617f10af210d9b8f574e5cc6d19fa16f4aefb8d45cd1f4",
		"dse-search":  "21677a376c65682fa4ca3d8e9b6211b15da8dbd6bbf5d16697b09bc23834bf49",
	}
	for _, w := range Workloads {
		got := listDigest(w.Generate(DefaultSeed, 16))
		if got != want[w.Name] {
			t.Errorf("%s: request list digest %s, pinned %s", w.Name, got, want[w.Name])
		}
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range Workloads {
		a, b := w.Generate(7, 40), w.Generate(7, 12)
		if listDigest(a[:12]) != listDigest(b) {
			t.Errorf("%s: the first 12 requests depend on the list length", w.Name)
		}
		if listDigest(w.Generate(8, 12)) == listDigest(b) {
			t.Errorf("%s: seeds 7 and 8 give the same requests", w.Name)
		}
		seeds := map[uint64]int{}
		for i, r := range a {
			var cr serve.CampaignRequest
			if err := json.Unmarshal(r.Body, &cr); err != nil {
				t.Fatalf("%s request %d: %v", w.Name, i, err)
			}
			if cr.Run.Seed != r.Seed || r.Seed == 0 {
				t.Errorf("%s request %d: run.seed %d, recorded %d", w.Name, i, cr.Run.Seed, r.Seed)
			}
			if _, _, _, err := serve.HashRequest(r.Body); err != nil {
				t.Errorf("%s request %d does not canonicalize: %v", w.Name, i, err)
			}
			if r.RepostOf >= 0 {
				if !bytes.Equal(r.Body, a[r.RepostOf].Body) || a[r.RepostOf].Role != "search" || r.RepostOf >= i {
					t.Errorf("%s request %d re-posts %d, which is not an earlier search with the same body", w.Name, i, r.RepostOf)
				}
				continue
			}
			if j, dup := seeds[r.Seed]; dup {
				t.Errorf("%s requests %d and %d share run.seed %d", w.Name, j, i, r.Seed)
			}
			seeds[r.Seed] = i
		}
	}
}

func TestDSERoles(t *testing.T) {
	roles := map[string]int{}
	for _, r := range genDSE(DefaultSeed, 400) {
		roles[r.Role]++
	}
	if roles["search"] != 200 || roles["sweep"] != 100 || roles["repost"] != 100 {
		t.Errorf("roles %v, want two searches, one sweep and one re-post in every four", roles)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables here in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []MetricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit || got[i].Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, EndToEnd)
	check("per_layer", doc.PerLayer, PerLayer)
}
