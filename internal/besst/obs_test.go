package besst

import (
	"testing"

	"besst/internal/lulesh"
	"besst/internal/obs"
)

// TestInstrumentationDoesNotPerturbResults is the observability
// equivalence gate: attaching a recording TraceBuffer and a Collector
// to a Monte Carlo replication must leave every result byte-identical
// to the uninstrumented run, at one worker and at eight. Run under
// -race it also proves the shared trace buffer and collector tolerate
// concurrent trials.
func TestInstrumentationDoesNotPerturbResults(t *testing.T) {
	cases := []struct {
		name string
		mode Mode
	}{
		{name: "direct", mode: Direct},
		{name: "des", mode: DES},
	}
	const n = 8
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app := lulesh.App(10, 8, 15, lulesh.ScenarioL1, cfg)
			arch := noisyArch()
			base := []Option{
				WithMode(tc.mode), WithPerRankNoise(true), WithSeed(97),
			}
			want := Replicate(app, arch, n, append(base[:len(base):len(base)], WithConcurrency(1))...)

			for _, workers := range []int{1, 8} {
				buf := obs.NewTraceBuffer(obs.DefaultTraceCap)
				col := obs.NewCollector()
				got := Replicate(app, arch, n, append(base[:len(base):len(base)],
					WithConcurrency(workers),
					WithTracer(buf),
					WithCollector(col))...)
				requireIdenticalResults(t, want, got, tc.name)

				snap := col.Snapshot("test")
				if len(snap.Trials) != n {
					t.Fatalf("collector saw %d trials, want %d", len(snap.Trials), n)
				}
				if tc.mode == DES {
					if buf.Len() == 0 {
						t.Fatal("DES run recorded no trace events")
					}
					if snap.EventsProcessed == 0 {
						t.Fatal("DES run reported zero events processed")
					}
				}
			}
		})
	}
}
