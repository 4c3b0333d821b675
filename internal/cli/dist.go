package cli

import (
	"flag"
	"strings"
	"time"

	"besst/internal/dist"
)

// DistFlags is the distributed-execution flag group shared by
// besst-sim and besst-dse: -dist points at a besst-worker fleet and
// the campaign runs across it — sharded, replicated, worker-loss
// tolerant — instead of in-process. The merged result document is
// byte-identical to besst-serve's result for the same campaign request.
type DistFlags struct {
	// Workers is the comma-separated worker base URL list; empty keeps
	// execution in-process.
	Workers string
	// Shards is the index-range shard count (0: one per worker).
	Shards int
	// Replicas is the functional-replication degree per shard.
	Replicas int
	// Token authenticates worker calls.
	Token string
	// Timeout bounds one shard-replica attempt.
	Timeout time.Duration
}

// RegisterDist registers the -dist flag group on fs.
func RegisterDist(fs *flag.FlagSet) *DistFlags {
	f := &DistFlags{}
	fs.StringVar(&f.Workers, "dist", "",
		"comma-separated besst-worker base URLs; runs the campaign across them instead of in-process and prints the merged campaign result document")
	fs.IntVar(&f.Shards, "dist-shards", 0, "index-range shards for -dist (0: one per worker)")
	fs.IntVar(&f.Replicas, "dist-replicas", 1,
		"functional-replication degree for -dist: each shard runs on this many workers and a strict majority of journals must agree")
	fs.StringVar(&f.Token, "dist-token", "", "bearer token for -dist worker calls")
	fs.DurationVar(&f.Timeout, "dist-timeout", 2*time.Minute, "per-shard attempt timeout for -dist")
	return f
}

// Enabled reports whether a worker fleet was selected.
func (f *DistFlags) Enabled() bool { return f.Workers != "" }

// Coordinator builds the distributed coordinator from the flag values.
func (f *DistFlags) Coordinator() (*dist.Coordinator, error) {
	var urls []string
	for _, w := range strings.Split(f.Workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			urls = append(urls, w)
		}
	}
	return dist.NewCoordinator(dist.Config{
		Workers:      urls,
		Shards:       f.Shards,
		Replicas:     f.Replicas,
		AuthToken:    f.Token,
		ShardTimeout: f.Timeout,
	})
}

// RunDist executes raw campaign request JSON across the fleet,
// reports retries, worker loss, and divergences on p (stderr-bound in
// the callers), and returns the merged result document.
func RunDist(f *DistFlags, p *Printer, raw []byte) ([]byte, error) {
	c, err := f.Coordinator()
	if err != nil {
		return nil, err
	}
	doc, rep, err := dist.RunRequest(c, raw, nil, nil)
	if err != nil {
		return nil, err
	}
	p.Printf("dist: %d shards x %d replicas across %d workers: retries=%d workers_lost=%d\n",
		rep.Shards, rep.Replicas, c.Workers(), rep.Retries, rep.WorkersLost)
	for _, d := range rep.Divergences {
		p.Printf("dist: divergence (majority accepted): %s\n", d)
	}
	return doc, nil
}
