package main

import (
	"encoding/json"
	"fmt"

	"besst/internal/besst"
	"besst/internal/serve"
)

// DefaultSeed is the workload seed whose result digest is stored in
// digests.json.
const DefaultSeed = 1

// modelSpec is the model bundle every workload develops: small enough
// that set-up stays a few seconds, identical across workloads so their
// set-up times compare.
var modelSpec = serve.ModelSpec{Method: "symreg", Samples: 5, Seed: 1}

// Request is one generated campaign request.
type Request struct {
	// Body is the POST /v1/campaigns body.
	Body []byte
	// Role is "mc", "search", "sweep" or "repost".
	Role string
	// Units is the result units the campaign delivers: Monte Carlo
	// trials or sweep grid cells.
	Units int
	// Seed is the request's pinned run.seed.
	Seed uint64
	// RepostOf is the index of the request this one re-posts verbatim,
	// or -1.
	RepostOf int
}

// Workload is one benchmark traffic mix.
type Workload struct {
	Name string
	Why  string
	// Dist runs campaigns through the dist backend on two in-process
	// workers instead of in-process execution.
	Dist bool
	// Generate returns the first n requests of the workload's list for
	// a seed. It is a pure function of (seed, n), and the first n
	// requests do not depend on n.
	Generate func(seed uint64, n int) []Request
}

// Sizes of the two workloads.
const (
	mcTrials     = 4
	mcSteps      = 200
	dseTimesteps = 100
	dseMCRuns    = 4
	dseBudget    = 0.4
)

var (
	dseEPRs      = []int{5, 10, 15, 20, 25}
	dseRanks     = []int{8, 64, 216}
	dseScenarios = []string{"noft", "l1", "l1l2"}
)

// Workloads lists the benchmark's workloads in report order.
var Workloads = []*Workload{
	{
		Name:     "mc-des-dist",
		Why:      "DES Monte Carlo over two dist workers at replication 2: the event engine, rank components and model Sample polls do the work; dist's own cost shows in dist.overhead_ms",
		Dist:     true,
		Generate: genMCDESDist,
	},
	{
		Name:     "dse-search",
		Why:      "surrogate searches, exhaustive sweeps and memo re-posts: dse, symreg refit and the point memo dominate",
		Generate: genDSE,
	},
}

// workloadByName resolves a --workload argument.
func workloadByName(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// splitmix is the generator's random stream. It is spelled out here so
// the request lists depend on nothing but the seed.
type splitmix struct{ s uint64 }

func newSplitmix(seed uint64, salt string) *splitmix {
	r := &splitmix{s: seed}
	for _, c := range salt {
		r.s = r.s*0x100000001b3 ^ uint64(c)
	}
	return r
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// runSeed draws a non-zero run.seed that survives any JSON reader
// (below 2^53).
func (r *splitmix) runSeed() uint64 { return r.next()&(1<<53-1) | 1 }

// intn draws from [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

func marshalRequest(req serve.CampaignRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal request: %v", err))
	}
	return b
}

func mcRequest(seed uint64, run besst.RunSpec, app serve.AppSpec, trials int) Request {
	run.SchemaVersion = besst.SpecSchemaVersion
	run.Seed = seed
	spec := modelSpec
	return Request{
		Body: marshalRequest(serve.CampaignRequest{
			SchemaVersion: serve.RequestSchemaVersion,
			Kind:          serve.KindMonteCarlo,
			Run:           run,
			Trials:        trials,
			App:           &app,
			Model:         &spec,
		}),
		Role:     "mc",
		Units:    trials,
		Seed:     seed,
		RepostOf: -1,
	}
}

func genMCDESDist(seed uint64, n int) []Request {
	rng := newSplitmix(seed, "mc-des-dist")
	out := make([]Request, n)
	for i := range out {
		out[i] = mcRequest(rng.runSeed(),
			besst.RunSpec{Mode: "des", PerRankNoise: true},
			serve.AppSpec{EPR: 10, Ranks: 64, Steps: mcSteps, Scenario: "l1l2"},
			mcTrials)
	}
	return out
}

// dseRequest builds one sweep request; search selects the surrogate
// search at dseBudget instead of exhaustive enumeration.
func dseRequest(seed uint64, search bool) Request {
	sweep := &serve.SweepSpec{
		EPRs:      dseEPRs,
		Ranks:     dseRanks,
		Scenarios: dseScenarios,
		Timesteps: dseTimesteps,
		MCRuns:    dseMCRuns,
	}
	role := "sweep"
	if search {
		sweep.Search = &serve.SearchSpec{Budget: dseBudget}
		role = "search"
	}
	spec := modelSpec
	return Request{
		Body: marshalRequest(serve.CampaignRequest{
			SchemaVersion: serve.RequestSchemaVersion,
			Kind:          serve.KindSweep,
			Run:           besst.RunSpec{SchemaVersion: besst.SpecSchemaVersion, Seed: seed},
			Model:         &spec,
			Sweep:         sweep,
		}),
		Role:     role,
		Units:    len(dseEPRs) * len(dseRanks) * len(dseScenarios),
		Seed:     seed,
		RepostOf: -1,
	}
}

// genDSE repeats a block of four: two fresh searches, one fresh
// exhaustive sweep, and a re-post of an earlier search, which the point
// memo answers without simulating.
func genDSE(seed uint64, n int) []Request {
	rng := newSplitmix(seed, "dse-search")
	out := make([]Request, n)
	var searches []int
	for i := range out {
		switch i % 4 {
		case 0, 1:
			out[i] = dseRequest(rng.runSeed(), true)
			searches = append(searches, i)
		case 2:
			out[i] = dseRequest(rng.runSeed(), false)
		case 3:
			src := searches[rng.intn(len(searches))]
			out[i] = out[src]
			out[i].Role = "repost"
			out[i].RepostOf = src
		}
	}
	return out
}
