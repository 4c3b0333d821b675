package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"

	"besst/internal/dist"
	"besst/internal/serve"
)

// Distributed geometry of the mc-dist workload.
const (
	distWorkers  = 2
	distShards   = 4
	distReplicas = 2
)

// system is one instance of the program under test: a besst-serve
// Server on a loopback listener and, for the dist workload, two
// in-process besst-worker handlers behind a coordinator.
type system struct {
	srv *serve.Server
	url string
	// execs are the dist workers' executors, whose compile caches do
	// the compiling when campaigns run on the backend.
	execs     []*serve.ShardExecutor
	listeners []*httptest.Server // the workers', then the service's
}

// startSystem builds the service for a workload. A non-nil recorder
// wraps the dist backend and the workers' executors so their calls are
// timed as spans.
func startSystem(w *Workload, rec *Recorder) (*system, error) {
	sys := &system{}
	cfg := serve.Config{}
	if w.Dist {
		urls := make([]string, 0, distWorkers)
		for i := 0; i < distWorkers; i++ {
			exec := serve.NewShardExecutor(serve.ExecConfig{Workers: 1})
			sys.execs = append(sys.execs, exec)
			var x dist.Executor = exec
			if rec != nil {
				x = tracedExecutor{next: x, rec: rec}
			}
			urls = append(urls, sys.listen(dist.WorkerHandler(dist.WorkerConfig{Executor: x})))
		}
		coord, err := dist.NewCoordinator(dist.Config{Workers: urls, Shards: distShards, Replicas: distReplicas})
		if err != nil {
			sys.Close()
			return nil, err
		}
		cfg.Backend = dist.ServeBackend(coord)
		if rec != nil {
			cfg.Backend = tracedBackend{next: cfg.Backend, rec: rec}
		}
	}
	sys.srv = serve.NewServer(cfg)
	sys.url = sys.listen(sys.srv.Handler())
	return sys, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (sys *system) listen(h http.Handler) string {
	ts := httptest.NewServer(h)
	sys.listeners = append(sys.listeners, ts)
	return ts.URL
}

// compileCache sums the compile-cache counters of the service and its
// workers.
func (sys *system) compileCache(statz serve.Statz) (hits, misses uint64) {
	hits, misses = statz.Cache.Hits, statz.Cache.Misses
	for _, x := range sys.execs {
		st := x.Statz()
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

// Close drains the service, then closes every listener, which waits for
// their outstanding requests.
func (sys *system) Close() {
	if sys.srv != nil {
		sys.srv.Drain()
	}
	for _, ts := range sys.listeners {
		ts.Close()
	}
	sys.listeners = nil
}

// tracedBackend times each serve.Backend.Run call as a dist.backend
// span and registers it as the parent of the campaign's shard spans.
type tracedBackend struct {
	next serve.Backend
	rec  *Recorder
}

func (b tracedBackend) Run(request []byte, n int, cancel <-chan struct{}, col serve.BackendCollector) ([]json.RawMessage, serve.BackendReport, error) {
	if !b.rec.On() {
		return b.next.Run(request, n, cancel, col)
	}
	id, _, _, err := serve.HashRequest(request)
	if err != nil {
		return nil, serve.BackendReport{}, err
	}
	s := Span{ID: b.rec.NewID(), Parent: b.rec.Parent(id), Campaign: id, Name: "dist.backend", Start: b.rec.Now(), Units: n}
	b.rec.SetParent(id, s.ID)
	payloads, rep, err := b.next.Run(request, n, cancel, col)
	s.End = b.rec.Now()
	b.rec.Add(s)
	return payloads, rep, err
}

// tracedExecutor times each dist.Executor.ExecShard call on a worker as
// a dist.shard_exec span carrying the units it ran and the payload
// bytes it returned.
type tracedExecutor struct {
	next dist.Executor
	rec  *Recorder
}

func (x tracedExecutor) ExecShard(campaignID string, request []byte, lo, hi int) ([]json.RawMessage, error) {
	if !x.rec.On() {
		return x.next.ExecShard(campaignID, request, lo, hi)
	}
	s := Span{Parent: x.rec.Parent(campaignID), Campaign: campaignID, Name: "dist.shard_exec", Start: x.rec.Now(), Units: hi - lo}
	payloads, err := x.next.ExecShard(campaignID, request, lo, hi)
	s.End = x.rec.Now()
	for _, p := range payloads {
		s.Bytes += int64(len(p))
	}
	x.rec.Add(s)
	return payloads, err
}
