package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"besst/internal/dse"
	"besst/internal/serve"
)

// Executor executes one index range of a campaign. Structurally
// satisfied by *serve.ShardExecutor; the indirection keeps the worker
// handler testable with scripted executors (forged divergences,
// stalls).
type Executor interface {
	ExecShard(campaignID string, request []byte, lo, hi int) ([]json.RawMessage, error)
}

// WorkerConfig parameterizes a worker's HTTP surface.
type WorkerConfig struct {
	// AuthToken, when non-empty, requires "Authorization: Bearer
	// <token>" on every endpoint except GET /v1/healthz.
	AuthToken string
	// Executor runs the shards. Required.
	Executor Executor
}

// maxShardBytes bounds a POST /v1/shards body: one canonical request,
// which besst-serve admits at up to serve.MaxRequestBytes, plus room
// for the envelope's own fields.
const maxShardBytes = serve.MaxRequestBytes + 4<<10

// WorkerHandler is the worker process's HTTP surface:
//
//	POST /v1/shards      execute a ShardRequest, answer a ShardResult
//	GET  /v1/healthz     liveness (the coordinator's heartbeat target)
//	GET  /v1/statz       compile-cache counters, when the executor has them
//
// Bad requests, an oversized body among them, answer 400 (the
// coordinator will not retry them); execution failures answer 500 (it
// will, on a survivor).
func WorkerHandler(cfg WorkerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxShardBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
			return
		}
		var req ShardRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("decode shard request: %v", err))
			return
		}
		if req.SchemaVersion != ShardSchemaVersion {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("shard schema_version %d, want %d", req.SchemaVersion, ShardSchemaVersion))
			return
		}
		payloads, err := cfg.Executor.ExecShard(req.CampaignID, req.Request, req.Lo, req.Hi)
		if err != nil {
			status := http.StatusInternalServerError
			if serve.IsBadRequest(err) {
				status = http.StatusBadRequest
			}
			writeError(w, status, err.Error())
			return
		}
		writeDoc(w, http.StatusOK, ShardResult{
			SchemaVersion: ShardSchemaVersion,
			CampaignID:    req.CampaignID,
			Lo:            req.Lo,
			Hi:            req.Hi,
			Payloads:      payloads,
		})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeDoc(w, http.StatusOK, serve.Healthz{Status: "ok"})
	})
	mux.HandleFunc("GET /v1/statz", func(w http.ResponseWriter, r *http.Request) {
		type statzer interface{ Statz() serve.CacheStats }
		type memoStatzer interface{ MemoStatz() dse.MemoStats }
		doc := struct {
			Cache     serve.CacheStats `json:"cache"`
			PointMemo dse.MemoStats    `json:"point_memo"`
		}{}
		if sz, ok := cfg.Executor.(statzer); ok {
			doc.Cache = sz.Statz()
		}
		if mz, ok := cfg.Executor.(memoStatzer); ok {
			doc.PointMemo = mz.MemoStatz()
		}
		writeDoc(w, http.StatusOK, doc)
	})
	return serve.WithAuth(cfg.AuthToken, mux)
}

// writeDoc writes one JSON response document. Deliberately compact:
// indentation would reformat the embedded json.RawMessage payloads,
// and payload bytes must cross the wire exactly as the executor
// produced them — they are the unit of replica comparison.
func writeDoc(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(doc)
}

// writeError writes the uniform error document.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeDoc(w, status, struct {
		Error string `json:"error"`
	}{Error: msg})
}

// ListenAndServeWorker runs a worker until SIGINT/SIGTERM. ready, when
// non-nil, is called with the bound address once the listener is up —
// cmd/besst-worker prints it so harnesses binding ":0" can learn the
// port. Lives here rather than in the cmd so the signal goroutine
// stays inside a concurrency-scoped package.
func ListenAndServeWorker(addr string, cfg WorkerConfig, ready func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	httpSrv := &http.Server{Handler: WorkerHandler(cfg)}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	stopped := make(chan struct{})
	go func() { // exits via sigc or the stopped-close below
		select {
		case <-sigc:
			_ = httpSrv.Close()
		case <-stopped:
		}
	}()

	err = httpSrv.Serve(ln)
	close(stopped)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}
