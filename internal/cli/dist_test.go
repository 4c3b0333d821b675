package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"besst/internal/dist"
)

// trialExec answers every unit of a shard with a one-field trial result.
type trialExec struct{}

func (trialExec) ExecShard(_ string, _ []byte, lo, hi int) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, hi-lo)
	for k := range out {
		out[k] = json.RawMessage(fmt.Sprintf(`{"Makespan":%d}`, lo+k+1))
	}
	return out, nil
}

// TestRunDistCountsParsedWorkers pins the progress line's worker count
// to the URLs the coordinator uses: a trailing comma adds none.
func TestRunDistCountsParsedWorkers(t *testing.T) {
	ts := httptest.NewServer(dist.WorkerHandler(dist.WorkerConfig{Executor: trialExec{}}))
	defer ts.Close()
	const request = `{
  "schema_version": 1,
  "kind": "monte_carlo",
  "trials": 4,
  "run": {"mode": "direct", "seed": 3},
  "app": {"epr": 4, "ranks": 8, "steps": 10, "scenario": "l1", "period": 5},
  "model": {"method": "interp", "samples": 2, "seed": 1}
}`
	var out bytes.Buffer
	f := &DistFlags{Workers: ts.URL + ",", Replicas: 1}
	if _, err := RunDist(f, NewPrinter(&out), []byte(request)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "across 1 workers") {
		t.Fatalf("progress line %q, want it to count 1 worker", out.String())
	}
}
