// Package dist executes one campaign across many worker processes and
// keeps going when workers die. It is the system-level expression of
// the paper's fault-tolerance thesis: the simulator that models
// checkpoint/restart and replication for exascale applications runs
// its own campaigns under the same disciplines.
//
// The layer is a coordinator/worker pair over stdlib HTTP/JSON:
//
//   - the coordinator (Coordinator) splits a monte_carlo or dse_sweep
//     campaign into deterministic index-range shards (par.Split over
//     serve.Plan.Units), dispatches each shard to k replica workers,
//     and merges the per-unit payloads with serve.Plan.Assemble;
//   - a worker (cmd/besst-worker, handler here) rebuilds the plan from
//     the canonical request bytes, verifies the campaign ID, executes
//     its index range through serve.ShardExecutor, and returns one
//     canonical payload per unit.
//
// Fault tolerance is functional replication (FT-GAIA's k-modular
// redundancy): every shard runs on k workers, replica journals are
// compared byte-for-byte, and a strict majority must agree. Worker
// loss (connection refused, timeout, 5xx) triggers exponential-backoff
// retry on surviving workers; divergent minorities are surfaced as
// first-class campaign errors, not averaged away.
//
// Because unit i's payload bytes are a pure function of (canonical
// request, i) — see internal/serve/exec.go — the merged result is
// byte-identical to a single-process run at any shard count, replica
// count, or kill schedule.
package dist

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ShardSchemaVersion versions the coordinator↔worker wire protocol.
const ShardSchemaVersion = 1

// ShardRequest is the body of POST /v1/shards: run units [Lo, Hi) of
// the campaign whose canonical request bytes are Request. The request
// travels with every shard so workers are stateless — any worker can
// execute any shard of any campaign, including ones admitted after the
// worker started.
type ShardRequest struct {
	SchemaVersion int             `json:"schema_version"`
	CampaignID    string          `json:"campaign_id"`
	Request       json.RawMessage `json:"request"`
	Lo            int             `json:"lo"`
	Hi            int             `json:"hi"`
}

// ShardResult is the worker's answer: one canonical payload per unit,
// index order. Payload bytes are the unit of replica comparison — the
// coordinator hashes them itself and never trusts a worker-reported
// digest.
type ShardResult struct {
	SchemaVersion int               `json:"schema_version"`
	CampaignID    string            `json:"campaign_id"`
	Lo            int               `json:"lo"`
	Hi            int               `json:"hi"`
	Payloads      []json.RawMessage `json:"payloads"`
}

// DivergenceError is a shard whose replicas could not reach a strict
// majority: no journal variant was returned by more than half the
// replicas that answered. The campaign fails with this error rather
// than guessing — FT-GAIA accepts majority results and only majority
// results.
type DivergenceError struct {
	Shard    int      // shard index
	Lo, Hi   int      // unit range
	Returned int      // replicas that answered
	Variants []string // distinct journal hashes observed, most common first
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("dist: shard %d [%d,%d) diverged: %d replicas returned %d distinct journals (%s) with no majority",
		e.Shard, e.Lo, e.Hi, e.Returned, len(e.Variants), strings.Join(e.Variants, ", "))
}
