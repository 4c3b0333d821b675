package main

import (
	"context"
	"fmt"
	"path/filepath"

	"besst/internal/serve"
)

// traced is the traced run. Campaigns of the timed phase alternate
// between span recording on and off, so the tracing overhead is the
// ratio of their median latencies under the same host conditions. The
// per-layer metrics come from the recorded campaigns and from direct
// calls into each layer afterwards. Every campaign is then replayed
// against the in-process reference and must match byte for byte.
func (b *bench) traced() (*Result, error) {
	ctx := context.Background()
	rec := NewRecorder()
	rec.SetOn(false) // set-up and warm-up are not traced
	sys, cl, o, _, err := b.start(ctx, rec)
	if err != nil {
		return nil, err
	}
	b.outs = []*Outcome{o}
	// Blocks of four campaigns alternate, so traced and untraced
	// campaigns see the same mix of dse-search's four request roles.
	b.loop(ctx, cl, rec, func(n int) { rec.SetOn(n/4%2 == 0) }, nil)
	rec.SetOn(false)
	statz, statzErr := cl.api.Statz(ctx)
	hits, misses := sys.compileCache(statz)
	cl.close()
	sys.Close()
	if statzErr != nil {
		return nil, fmt.Errorf("statz: %w", statzErr)
	}

	idx := make([]int, len(b.outs))
	for i := range idx {
		idx[i] = i
	}
	judge(b.reqs, b.outs, references(b.reqs, idx))

	values := b.campaignLayers(rec, statz)
	values["serve.compile_hit_ratio"] = ratio(hits, hits+misses)
	var searches []Request
	if b.w.Name == "dse-search" {
		for _, r := range b.reqs {
			if r.Role == "search" && len(searches) < dseProbeSearches {
				searches = append(searches, r)
			}
		}
	}
	probed, err := probeLayers(b.reqs[0], searches, rec)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range probed {
		values[k] = v
	}
	for _, d := range PerLayer {
		if !layerRuns(b.w, d.Layer) {
			values[d.Name] = 0
		}
	}

	path := filepath.Join(b.o.out, fmt.Sprintf("spans_%s_seed%d.jsonl", b.w.Name, b.o.seed))
	if err := rec.WriteJSONL(path); err != nil {
		return nil, err
	}
	b.p.Printf("spans: %d written to %s\n", len(rec.Spans()), path)
	res := b.result(PerLayer, values, b.checkDigest())
	b.report(res, nil)
	return res, nil
}

// campaignLayers derives the per-layer metrics of the recorded timed
// campaigns: client spans, backend and shard spans, the settled
// progress, the point memo's counters and the runtime deltas.
func (b *bench) campaignLayers(rec *Recorder, statz serve.Statz) map[string]float64 {
	m := map[string]float64{}
	var traced, untraced []*Outcome
	for _, o := range b.timed() {
		if o.Traced {
			traced = append(traced, o)
		} else {
			untraced = append(untraced, o)
		}
	}
	spans := rec.Spans()

	m["serve.submit_ms"] = Median(durMS(rec.Named("serve.submit")))
	m["serve.settle_ms"] = Median(durMS(rec.Named("serve.settle")))
	m["serve.fetch_ms"] = Median(durMS(rec.Named("serve.fetch")))
	canon := durMS(rec.Named("serve.canon"))
	for i := range canon {
		canon[i] *= 1e3
	}
	m["serve.canon_us"] = Median(canon)
	var kb []float64
	for _, s := range rec.Named("serve.campaign") {
		kb = append(kb, float64(s.Bytes)/1e3)
	}
	m["serve.result_kb"] = Median(kb)
	m["dse.memo_hit_ratio"] = ratio(statz.PointMemo.Hits, statz.PointMemo.Hits+statz.PointMemo.Misses)

	backends := rec.Named("dist.backend")
	shards := rec.Named("dist.shard_exec")
	var overhead, shardKB []float64
	var accepted, executed int
	for _, s := range backends {
		overhead = append(overhead, float64(SelfTime(s, ChildrenOf(spans, s.ID)))/1e6)
		accepted += s.Units
	}
	for _, s := range shards {
		shardKB = append(shardKB, float64(s.Bytes)/1e3)
		executed += s.Units
	}
	m["dist.backend_ms"] = Median(durMS(backends))
	m["dist.shard_exec_ms"] = Median(durMS(shards))
	m["dist.shard_kb"] = Median(shardKB)
	m["dist.overhead_ms"] = Median(overhead)
	m["dist.useful_ratio"] = ratio(uint64(accepted), uint64(executed))
	for _, o := range traced {
		m["dist.retries"] += float64(o.Final.Progress.ShardRetries)
		m["dist.divergences"] += float64(o.Final.Progress.ShardDivergences + len(o.Final.Divergences))
	}

	units := b.units(b.timed())
	m["go.alloc_mb_per_unit"] = (b.after.allocBytes - b.before.allocBytes) / 1e6 / float64(units)
	busy := (b.after.totalCPU - b.after.idleCPU) - (b.before.totalCPU - b.before.idleCPU)
	m["go.gc_cpu_pct"] = 100 * (b.after.gcCPU - b.before.gcCPU) / busy
	m["trace.overhead_pct"] = 100 * (Median(latenciesMS(traced))/Median(latenciesMS(untraced)) - 1)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
