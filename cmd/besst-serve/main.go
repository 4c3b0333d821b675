// Command besst-serve runs the BE-SST simulation service: a
// multi-tenant HTTP daemon exposing the versioned campaign API over
// the same compile/run pipeline the CLIs use.
//
//	besst-serve -addr 127.0.0.1:8321 -state results/serve
//
// Endpoints (see internal/serve and DESIGN.md):
//
//	POST /v1/campaigns             submit (or join/resume) a campaign
//	GET  /v1/campaigns/{id}        status; ?watch=1 streams NDJSON
//	GET  /v1/campaigns/{id}/result the byte-reproducible result document
//	GET  /v1/healthz               liveness + drain state
//	GET  /v1/statz                 queue/tenant/compile-cache counters
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"besst/internal/dist"
	"besst/internal/dse"
	"besst/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address")
	state := flag.String("state", "", "checkpoint journal directory for drain-and-resume (empty: no journals)")
	workers := flag.Int("workers", 0, "default per-campaign replication workers (0: GOMAXPROCS)")
	cacheCap := flag.Int("cache-cap", 8, "compile cache capacity (artifacts)")
	maxQueued := flag.Int("max-queued", 16, "admission queue bound; beyond it POST answers 429")
	maxActive := flag.Int("max-active", 2, "concurrently running campaigns")
	maxTenant := flag.Int("max-tenant", 1, "per-tenant concurrently running campaigns")
	authToken := flag.String("auth-token", "", "shared bearer token required on every endpoint except /v1/healthz; empty disables auth")
	campaignTTL := flag.Duration("campaign-ttl", 0, "evict settled campaigns from the registry after this long (0: keep forever)")
	workersAddr := flag.String("workers-addr", "", "comma-separated besst-worker base URLs; campaigns execute on that fleet instead of in-process")
	distShards := flag.Int("dist-shards", 0, "index-range shards per campaign for -workers-addr (0: one per worker)")
	distReplicas := flag.Int("dist-replicas", 1, "functional-replication degree for -workers-addr")
	memoCap := flag.Int("memo-cap", 0, "cross-campaign design-point memo capacity (0: default)")
	memoJournal := flag.String("memo-journal", "", "append-only point-memo journal file; replayed on boot so the memo survives restarts")
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

	var backend serve.Backend
	if *workersAddr != "" {
		var urls []string
		for _, w := range strings.Split(*workersAddr, ",") {
			if w = strings.TrimSpace(w); w != "" {
				urls = append(urls, w)
			}
		}
		c, err := dist.NewCoordinator(dist.Config{
			Workers:   urls,
			Shards:    *distShards,
			Replicas:  *distReplicas,
			AuthToken: *authToken,
		})
		if err != nil {
			fatalf("%v", err)
		}
		backend = dist.ServeBackend(c)
		fmt.Fprintf(os.Stderr, "besst-serve executing campaigns on %d workers (shards=%d, replicas=%d)\n",
			len(urls), *distShards, *distReplicas)
	}

	srv := serve.NewServer(serve.Config{
		StateDir:     *state,
		Workers:      *workers,
		CacheCap:     *cacheCap,
		MaxQueued:    *maxQueued,
		MaxActive:    *maxActive,
		MaxPerTenant: *maxTenant,
		AuthToken:    *authToken,
		CampaignTTL:  *campaignTTL,
		Backend:      backend,
		Memo:         memo,
	})
	fmt.Fprintf(os.Stderr, "besst-serve listening on %s\n", *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "besst-serve: "+format+"\n", args...)
	os.Exit(1)
}
