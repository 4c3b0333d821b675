// Command besst-worker runs one shard-execution worker for the
// distributed campaign layer (internal/dist): a stateless HTTP process
// that executes index ranges of monte_carlo and dse_sweep campaigns on
// demand and answers byte-canonical per-unit payloads.
//
//	besst-worker -addr 127.0.0.1:9001 -auth-token secret
//
// Endpoints (see internal/dist and DESIGN.md):
//
//	POST /v1/shards    execute units [lo, hi) of a campaign
//	GET  /v1/healthz   liveness (coordinator heartbeat target)
//	GET  /v1/statz     compile-cache counters
//
// The chaos flags arm the deterministic fault injector — -chaos-kill
// SIGKILLs the worker itself mid-shard on a schedule that is a pure
// function of (-chaos-seed, unit index), which is how the dist
// package's TestSIGKILLReplicaMidShardByteIdentical proves worker loss
// cannot change result bytes.
package main

import (
	"flag"
	"fmt"
	"os"

	"besst/internal/dist"
	"besst/internal/dse"
	"besst/internal/resilience"
	"besst/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8341", "listen address (use :0 for an ephemeral port; the bound address is printed)")
	authToken := flag.String("auth-token", "", "shared bearer token; empty disables auth")
	cacheCap := flag.Int("cache-cap", 8, "compile cache capacity (artifacts)")
	memoCap := flag.Int("memo-cap", 0, "cross-campaign design-point memo capacity (0: default)")
	memoJournal := flag.String("memo-journal", "", "append-only point-memo journal file; replayed on boot")
	workers := flag.Int("workers", 1, "intra-shard unit concurrency (scale by process count first)")
	chaosKill := flag.Float64("chaos-kill", 0, "per-unit probability of SIGKILLing this worker mid-shard")
	chaosDelay := flag.Float64("chaos-delay", 0, "per-unit probability of an injected straggler delay")
	chaosSeed := flag.Uint64("chaos-seed", 1, "chaos injector seed (schedule is deterministic per seed)")
	flag.Parse()

	var memo *dse.Memo
	if *memoJournal != "" {
		var err error
		if memo, err = dse.NewMemoJournal(*memoCap, *memoJournal); err != nil {
			fatalf("%v", err)
		}
		defer func() { _ = memo.Close() }()
	} else if *memoCap > 0 {
		memo = dse.NewMemo(*memoCap)
	}

	exec := serve.NewShardExecutor(serve.ExecConfig{
		Workers:  *workers,
		CacheCap: *cacheCap,
		Memo:     memo,
		Chaos: resilience.ChaosConfig{
			KillRate:  *chaosKill,
			DelayRate: *chaosDelay,
			Seed:      *chaosSeed,
		},
	})
	cfg := dist.WorkerConfig{AuthToken: *authToken, Executor: exec}
	err := dist.ListenAndServeWorker(*addr, cfg, func(bound string) {
		// Stdout on purpose — harnesses binding ":0" parse this line
		// for the port; errors on it are not actionable.
		_, _ = fmt.Printf("besst-worker listening on %s\n", bound)
	})
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "besst-worker: "+format+"\n", args...)
	os.Exit(1)
}
