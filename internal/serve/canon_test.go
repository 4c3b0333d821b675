package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// canonCases are spellings and their canonical forms; they also seed
// FuzzCanonicalJSON and FuzzBuildPlan.
var canonCases = []struct{ name, in, want string }{
	{"sorted keys", `{"b":2,"a":1}`, `{"a":1,"b":2}`},
	{"whitespace", "{\n  \"a\": 1 ,\t\"b\": [ 1 , 2 ]\n}", `{"a":1,"b":[1,2]}`},
	{"float spelling of int", `{"x":1.0}`, `{"x":1}`},
	{"exponent spelling", `{"x":1e0}`, `{"x":1}`},
	{"negative zero int", `{"x":-0}`, `{"x":0}`},
	{"negative zero float", `{"x":-0.0}`, `{"x":0}`},
	{"fraction spellings", `{"x":5e-1}`, `{"x":0.5}`},
	{"big int preserved", `{"x":100000000000000000001}`, `{"x":100000000000000000001}`},
	{"escape spelling", `{"x":"A"}`, `{"x":"A"}`},
	{"nested", `{"b":{"d":4,"c":3},"a":[{"y":2.0,"x":1}]}`, `{"a":[{"x":1,"y":2}],"b":{"c":3,"d":4}}`},
	{"scalars", `[true,false,null,"s"]`, `[true,false,null,"s"]`},
}

func TestCanonicalJSONNormalizes(t *testing.T) {
	for _, tc := range canonCases {
		got, err := CanonicalJSON([]byte(tc.in))
		if err != nil {
			t.Fatalf("%s: CanonicalJSON(%q): %v", tc.name, tc.in, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: CanonicalJSON(%q) = %q, want %q", tc.name, tc.in, got, tc.want)
		}
	}
}

// FuzzCanonicalJSON drives arbitrary bytes through the request
// canonicalizer. Properties: it never panics, the canonical form of
// any accepted input is itself accepted and is a fixed point
// (CanonicalJSON(c) == c), and HashRequest gives the input and its
// canonical form the same campaign ID.
func FuzzCanonicalJSON(f *testing.F) {
	for _, tc := range canonCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := CanonicalJSON(raw)
		if err != nil {
			return
		}
		again, err := CanonicalJSON(c)
		if err != nil {
			t.Fatalf("canonical form %q of %q rejected: %v", c, raw, err)
		}
		if !bytes.Equal(again, c) {
			t.Fatalf("not idempotent: %q -> %q -> %q", raw, c, again)
		}
		idRaw, _, _, err := HashRequest(raw)
		if err != nil {
			t.Fatalf("HashRequest(%q): %v", raw, err)
		}
		idCanon, _, _, err := HashRequest(c)
		if err != nil {
			t.Fatalf("HashRequest(%q): %v", c, err)
		}
		if idRaw != idCanon {
			t.Fatalf("input %q and its canonical form %q hash to %s and %s", raw, c, idRaw, idCanon)
		}
	})
}

// FuzzBuildPlan drives arbitrary bytes through HashRequest and
// buildPlan, the path every POST /v1/campaigns body takes. Properties:
// it never panics, every rejection is a *badRequest (a 400, never a
// 500), and an accepted plan has 1 <= trials <= maxTrials and at least
// one work unit. A sweep's trials are its per-point mc_runs.
func FuzzBuildPlan(f *testing.F) {
	for _, tc := range canonCases {
		f.Add([]byte(tc.in))
	}
	for _, req := range []string{
		`{"kind":"single","run":{},"app":{"epr":4,"ranks":8,"steps":5,"scenario":"l1"}}`,
		`{"kind":"monte_carlo","trials":3,"run":{"seed":7},"app":{"epr":4,"ranks":8,"steps":5,"scenario":"l1l2","period":2},"model":{"method":"interp","samples":2}}`,
		`{"kind":"dse_sweep","run":{},"sweep":{"eprs":[5,10],"ranks":[8,27],"scenarios":["l1"],"timesteps":5,"mc_runs":1,"search":{"budget":0.5}}}`,
	} {
		f.Add([]byte(req))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		id, canonical, sum, err := HashRequest(raw)
		if err != nil {
			return
		}
		pl, err := buildPlan(id, sum, canonical)
		if err != nil {
			var br *badRequest
			if !errors.As(err, &br) {
				t.Fatalf("buildPlan(%q) error %v (%T) is not a *badRequest", canonical, err, err)
			}
			return
		}
		trials := pl.trials
		if pl.req.Kind == KindSweep {
			trials = pl.sweepCfg.MCRuns
		}
		if trials < 1 || trials > maxTrials {
			t.Fatalf("buildPlan(%q) accepted %d trials, outside [1, %d]", canonical, trials, maxTrials)
		}
		if n := pl.units(); n < 1 {
			t.Fatalf("buildPlan(%q) accepted a plan with %d work units", canonical, n)
		}
	})
}

func TestCanonicalJSONRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "{", `{"a":1}{"b":2}`, `{"a":1} trailing`, "nope"} {
		if _, err := CanonicalJSON([]byte(in)); err == nil {
			t.Errorf("CanonicalJSON(%q) accepted invalid input", in)
		}
	}
}

// TestHashRequestSpellingInvariance is the regression for the canonical
// hashing bugfix: semantically identical configs, spelled differently,
// must produce one campaign identity...
func TestHashRequestSpellingInvariance(t *testing.T) {
	a := []byte(`{"kind":"monte_carlo","trials":5,"run":{"seed":7,"workers":2}}`)
	b := []byte("{\"run\": {\"workers\": 2.0, \"seed\": 7},\n \"trials\": 5, \"kind\": \"monte_carlo\"}")
	idA, canonA, sumA, err := HashRequest(a)
	if err != nil {
		t.Fatal(err)
	}
	idB, canonB, sumB, err := HashRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if idA != idB || sumA != sumB || !bytes.Equal(canonA, canonB) {
		t.Fatalf("spellings hashed apart: %s vs %s (%q vs %q)", idA, idB, canonA, canonB)
	}
	if DeriveSeed(sumA) != DeriveSeed(sumB) {
		t.Fatal("derived seeds differ for identical configs")
	}

	c := []byte(`{"kind":"monte_carlo","trials":6,"run":{"seed":7,"workers":2}}`)
	idC, _, _, err := HashRequest(c)
	if err != nil {
		t.Fatal(err)
	}
	if idC == idA {
		t.Fatal("distinct configs collided")
	}
}

// ...and at the cache layer: two spellings must share one cache entry
// (one miss, then hits).
func TestCacheOneEntryForEquivalentSpellings(t *testing.T) {
	idA, _, _, err := HashRequest([]byte(`{"samples":2,"method":"interp"}`))
	if err != nil {
		t.Fatal(err)
	}
	idB, _, _, err := HashRequest([]byte(`{"method": "interp", "samples": 2.0}`))
	if err != nil {
		t.Fatal(err)
	}

	c := newCache(4)
	builds := 0
	build := func() (any, error) { builds++; return "artifact", nil }
	if _, hit, _ := c.Get(idA, build); hit {
		t.Fatal("first Get reported a hit on an empty cache")
	}
	if _, hit, _ := c.Get(idB, build); !hit {
		t.Fatal("equivalent spelling missed the cache")
	}
	if builds != 1 {
		t.Fatalf("built %d times, want 1", builds)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 entry, 1 hit, 1 miss", st)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newCache(4)
	var mu sync.Mutex
	builds := 0
	release := make(chan struct{})
	build := func() (any, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		<-release
		return 42, nil
	}
	const n = 8
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Get("k", build)
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("concurrent Gets built %d times, want 1 (single-flight)", builds)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %v, want 42", i, v)
		}
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := newCache(2)
	build := func(v int) func() (any, error) { return func() (any, error) { return v, nil } }
	_, _, _ = c.Get("a", build(1))
	_, _, _ = c.Get("b", build(2))
	_, _, _ = c.Get("a", build(1)) // a now most recent
	_, _, _ = c.Get("c", build(3)) // evicts b
	if _, hit, _ := c.Get("a", build(1)); !hit {
		t.Fatal("recently used entry was evicted")
	}
	if _, hit, _ := c.Get("b", build(2)); hit {
		t.Fatal("least recently used entry survived eviction")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", st)
	}
}

func TestCacheDoesNotCacheFailures(t *testing.T) {
	c := newCache(4)
	calls := 0
	failing := func() (any, error) { calls++; return nil, fmt.Errorf("boom %d", calls) }
	if _, _, err := c.Get("k", failing); err == nil {
		t.Fatal("failed build returned nil error")
	}
	if _, hit, err := c.Get("k", failing); err == nil || hit {
		t.Fatalf("failure was cached (hit=%v err=%v)", hit, err)
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2 (failures retried)", calls)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed builds left %d entries in the cache", st.Entries)
	}
}
