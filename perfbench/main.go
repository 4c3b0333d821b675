// Command perfbench is the besst-serve campaign benchmark. It drives an
// in-process besst-serve over loopback from one closed-loop client —
// each campaign is posted only after the previous one's result came
// back, the way a design-space exploration script calls the service —
// and reports end-to-end metrics (untraced run) or per-layer metrics
// (traced run) as one JSON line.
//
//	perfbench --workload mc-des-dist --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"besst/internal/cli"
	"besst/internal/serve"
)

// Run shape.
const (
	// warmup requests follow the cold set-up request and are not timed.
	warmup = 3
	// minTimed is the fewest timed campaigns a run makes, so that at
	// least ten samples lie beyond p90.
	minTimed = 100
	// maxTimed bounds the generated request list.
	maxTimed = 5000
	// loopBudget stops the timed loop early on a pathologically slow
	// host, leaving time to verify and report.
	loopBudget = 120 * time.Second
	// deadline aborts a run that would otherwise exceed the 180 s a run
	// may take.
	deadline = 170 * time.Second
	// sampledRefs is how many timed campaigns an untraced run checks
	// byte for byte against the in-process reference.
	sampledRefs = 4
	// setupRuns is how many cold set-ups an untraced run makes;
	// setup_s, the least steady metric, is their median. All but the
	// first run in pauses of the timed phase.
	setupRuns = 3
	// procs is the benchmark's GOMAXPROCS. On a shared virtual machine
	// a vCPU that idles and is woken again waits for the host to
	// schedule it, and that wait grows with the host's load. With two
	// Ps the hand-offs between the client, the service and its workers
	// keep waking the second vCPU, and every wall-clock metric follows
	// the host's load (README.md, "Why one P"). The program sizes its
	// pools from GOMAXPROCS, and its results do not depend on the
	// worker count.
	procs = 1
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: mc-des-dist | dse-search")
	fs.Uint64Var(&o.seed, "seed", DefaultSeed, "workload seed; the request list is a function of it alone")
	fs.IntVar(&o.seconds, "seconds", 10, "minimum length of the timed phase")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the run record and span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil || (o.trace != 0 && o.trace != 1) || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %d)\n", o.workload, o.trace, o.seconds)
		return 2
	}
	// One process, one client, one P (see procs), moved between the
	// machine's CPUs (see rotateCPUs).
	runtime.GOMAXPROCS(procs)
	defer rotateCPUs()()
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	out := cli.Stdout()
	b := &bench{o: o, w: w, p: out, reqs: w.Generate(o.seed, 1+warmup+maxTimed), started: time.Now()}
	var res *Result
	if o.trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out.Println(string(line))
	if err := out.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing output:", err)
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	o       options
	w       *Workload
	p       *cli.Printer // standard output
	reqs    []Request
	outs    []*Outcome // by request index
	started time.Time

	timedFrom int           // first timed request index
	wall      time.Duration // timed phase
	before    runtimeSample // at the start of the timed phase
	after     runtimeSample // at its end
	heapLive  float64       // live heap bytes after minTimed campaigns

	// setupFailed counts failures of the discarded set-up systems,
	// whose outcomes are not kept.
	setupFailed int
}

// Env is the run environment, recorded with every result.
type Env struct {
	Workload        string          `json:"workload"`
	Seed            uint64          `json:"seed"`
	Trace           int             `json:"trace"`
	GOMAXPROCS      int             `json:"gomaxprocs"`
	NumCPU          int             `json:"num_cpu"`
	GoVersion       string          `json:"go_version"`
	ModelSpec       serve.ModelSpec `json:"model_spec"`
	RequestsPerRun  int             `json:"requests_per_run"`
	TimedCampaigns  int             `json:"timed_campaigns"`
	SetupsPerRun    int             `json:"setups_per_run"`
	TimedSeconds    float64         `json:"timed_seconds"`
	ClientLoop      string          `json:"client_loop"`
	ClientConnLimit int             `json:"client_connections"`
}

// setups is how many cold set-ups the run makes.
func (b *bench) setups() int {
	if b.o.trace == 1 {
		return 1
	}
	return setupRuns
}

func (b *bench) env() Env {
	setups := b.setups()
	return Env{
		Workload:        b.w.Name,
		Seed:            b.o.seed,
		Trace:           b.o.trace,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		GoVersion:       runtime.Version(),
		ModelSpec:       modelSpec,
		RequestsPerRun:  len(b.outs) + setups - 1,
		TimedCampaigns:  len(b.outs) - b.timedFrom,
		SetupsPerRun:    setups,
		TimedSeconds:    b.wall.Seconds(),
		ClientLoop:      "closed, 1 client",
		ClientConnLimit: 1,
	}
}

// start builds a system and runs the cold request on it. The returned
// duration covers both: model development, compile and the first
// campaign, up to its verified result.
func (b *bench) start(ctx context.Context, rec *Recorder) (*system, *client, *Outcome, time.Duration, error) {
	t0 := time.Now()
	sys, err := startSystem(b.w, rec)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	cl := newClient(sys.url)
	o := cl.runCampaign(ctx, 0, b.reqs[0].Body, rec)
	if !o.Failed() {
		if err := checkBody(b.reqs[0], o.ID, o.Body); err != nil {
			o.Err = err
		}
	}
	return sys, cl, o, time.Since(t0), nil
}

// loop runs the warm-up requests, then the timed phase: requests in list
// order until at least --seconds have passed and minTimed campaigns have
// completed. before is called ahead of each timed campaign. The pauses
// run in turn at even intervals of the timed phase with its clocks
// stopped; any that the timed phase ended too early for run after it.
func (b *bench) loop(ctx context.Context, cl *client, rec *Recorder, before func(timed int), pauses []func()) {
	for i := 1; i <= warmup; i++ {
		b.outs = append(b.outs, cl.runCampaign(ctx, i, b.reqs[i].Body, rec))
	}
	b.timedFrom = len(b.outs)
	runtime.GC()
	b.before = sampleRuntime()
	seconds := time.Duration(b.o.seconds) * time.Second
	t0 := time.Now()
	var paused, pausedCPU time.Duration
	stopClocks := func(fn func()) {
		p0, c0 := time.Now(), processCPU()
		fn()
		paused += time.Since(p0)
		pausedCPU += processCPU() - c0
	}
	next := 0
	for i := b.timedFrom; i < len(b.reqs); i++ {
		n := i - b.timedFrom
		if n == minTimed {
			// The service keeps every settled campaign, so its live heap
			// grows with the campaigns run. Measured after a fixed count
			// it does not follow the host's speed.
			stopClocks(func() {
				runtime.GC()
				b.heapLive = sampleRuntime().liveBytes
			})
		}
		elapsed := time.Since(t0) - paused
		if next < len(pauses) && elapsed >= seconds*time.Duration(next+1)/time.Duration(len(pauses)+1) {
			stopClocks(pauses[next])
			next++
		}
		if (elapsed >= seconds && n >= minTimed) || time.Since(b.started) > loopBudget {
			break
		}
		if before != nil {
			before(n)
		}
		b.outs = append(b.outs, cl.runCampaign(ctx, i, b.reqs[i].Body, rec))
	}
	b.wall = time.Since(t0) - paused
	b.after = sampleRuntime()
	b.after.procCPU -= pausedCPU
	for ; next < len(pauses); next++ {
		pauses[next]()
	}
}

// timed returns the timed outcomes that did not fail.
func (b *bench) timed() []*Outcome {
	var out []*Outcome
	for _, o := range b.outs[b.timedFrom:] {
		if !o.Failed() {
			out = append(out, o)
		}
	}
	return out
}

func (b *bench) units(outs []*Outcome) int {
	n := 0
	for _, o := range outs {
		n += b.reqs[o.Index].Units
	}
	return n
}

func latenciesMS(outs []*Outcome) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		out[i] = float64(o.Latency) / 1e6
	}
	return out
}

// endToEnd is the untraced run. The first set-up builds the system the
// timed phase runs on. The others build throwaway systems in pauses
// spread through the timed phase, so that the timed campaigns sample the
// host over the whole run rather than its last --seconds: the host's
// speed wanders over tens of seconds (README.md, "Measured spread").
func (b *bench) endToEnd() (*Result, error) {
	ctx := context.Background()
	sys, cl, o, d, err := b.start(ctx, nil)
	if err != nil {
		return nil, err
	}
	b.outs = []*Outcome{o}
	setups := []float64{d.Seconds()}
	var setupErr error
	pauses := make([]func(), setupRuns-1)
	for k := range pauses {
		pauses[k] = func() {
			s, c, o, d, err := b.start(ctx, nil)
			if err != nil {
				setupErr = err
				return
			}
			if o.Failed() {
				b.setupFailed++
				b.p.Printf("FAILED set-up request 0: %v\n", o.Err)
			}
			c.close()
			s.Close()
			// Collect the throwaway system before the clocks restart.
			runtime.GC()
			setups = append(setups, d.Seconds())
		}
	}
	b.loop(ctx, cl, nil, nil, pauses)
	cl.close()
	sys.Close()
	if setupErr != nil {
		return nil, setupErr
	}

	// Check a spread of timed campaigns byte for byte against the
	// reference, and every campaign by the checks that need none.
	var idx []int
	for k, n := 0, len(b.outs)-b.timedFrom; k < sampledRefs && n > 0; k++ {
		idx = append(idx, b.timedFrom+k*(n-1)/(sampledRefs-1))
	}
	judge(b.reqs, b.outs, references(b.reqs, idx))
	digestOK := b.checkDigest()

	good := b.timed()
	units := b.units(good)
	lat := latenciesMS(good)
	values := map[string]float64{
		"setup_s":         Median(setups),
		"campaign_p50_ms": Quantile(lat, 0.5),
		"campaign_p90_ms": Quantile(lat, 0.9),
		"units_per_s":     float64(units) / b.wall.Seconds(),
		"cpu_ms_per_unit": float64(b.after.procCPU-b.before.procCPU) / 1e6 / float64(units),
		"heap_live_mb":    b.heapLive / 1e6,
	}
	res := b.result(EndToEnd, values, digestOK)
	b.report(res, setups)
	return res, nil
}

// result assembles the result line.
func (b *bench) result(defs []MetricDef, values map[string]float64, digestOK bool) *Result {
	failed := b.setupFailed
	for _, o := range b.outs {
		if o.Failed() {
			failed++
			b.p.Printf("FAILED request %d (%s): %v\n", o.Index, b.reqs[o.Index].Role, o.Err)
		}
	}
	return &Result{
		Correct:   failed == 0 && digestOK,
		Attempted: len(b.outs) + b.setups() - 1,
		Failed:    failed,
		Metrics:   resultOf(b.p, defs, values),
	}
}

// checkDigest compares the default seed's result digest with the stored
// one. Other seeds have no stored digest and pass. A mismatch prints the
// computed digest, which is what digests.json needs after an intended
// change to result bytes.
func (b *bench) checkDigest() bool {
	if b.o.seed != DefaultSeed {
		return true
	}
	stored, err := storedDigests()
	if err != nil {
		b.p.Println("perfbench:", err)
		return false
	}
	want, ok := stored[b.w.Name]
	if !ok {
		b.p.Printf("digest: none stored for %s\n", b.w.Name)
		return false
	}
	got := bodyDigest(b.outs, want.Requests)
	if got != want.SHA256 {
		b.p.Printf("digest: MISMATCH over %d requests: got %q, stored %s\n", want.Requests, got, want.SHA256)
		return false
	}
	b.p.Printf("digest: ok over %d requests (%s)\n", want.Requests, got[:16])
	return true
}

// report prints the human-readable summary and writes the run record.
func (b *bench) report(res *Result, setups []float64) {
	env := b.env()
	envLine, _ := json.Marshal(env)
	b.p.Printf("env: %s\n", envLine)
	if setups != nil {
		b.p.Printf("setups_s: %v\n", setups)
	}
	defs := EndToEnd
	if b.o.trace == 1 {
		defs = PerLayer
		b.p.Printf("%-28s %14s  %s\n", "per-layer metric", "value", "unit")
	}
	for _, d := range defs {
		if !layerRuns(b.w, d.Layer) {
			continue
		}
		m := res.Metrics[d.Name]
		b.p.Printf("%-28s %14.4f  %s\n", d.Name, m.Value, m.Unit)
	}
	b.p.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)

	record := struct {
		Env        Env       `json:"env"`
		SetupsS    []float64 `json:"setups_s,omitempty"`
		LatencyMS  []float64 `json:"latency_ms"`
		Result     *Result   `json:"result"`
		RecordedAt string    `json:"recorded_at"`
	}{env, setups, latenciesMS(b.timed()), res, time.Now().UTC().Format(time.RFC3339)}
	raw, err := json.MarshalIndent(record, "", "  ")
	if err == nil {
		name := fmt.Sprintf("run_%s_seed%d_trace%d.json", b.w.Name, b.o.seed, b.o.trace)
		err = os.WriteFile(filepath.Join(b.o.out, name), append(raw, '\n'), 0o644)
	}
	if err != nil {
		b.p.Println("perfbench: write run record:", err)
	}
}
