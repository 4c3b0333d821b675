package cli

import (
	"flag"
	"path/filepath"
	"testing"

	"besst/internal/obs"
)

func sessionWith(t *testing.T, args ...string) *Session {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterCommon(fs, 0)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	s, err := f.Begin("besst-sim")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCampaignEnabled(t *testing.T) {
	cases := []struct {
		args []string
		want bool
	}{
		{nil, false},
		{[]string{"-ckpt", "results"}, true},
		{[]string{"-resume"}, true},
		{[]string{"-chaos", "0.1"}, true},
		{[]string{"-metrics", "results"}, false},
	}
	for _, c := range cases {
		if got := sessionWith(t, c.args...).CampaignEnabled(); got != c.want {
			t.Errorf("CampaignEnabled(%v) = %v, want %v", c.args, got, c.want)
		}
	}
}

func TestCkptPathResolution(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, ""},
		{[]string{"-chaos", "0.1"}, ""}, // chaos alone runs journal-free
		{[]string{"-ckpt", "results"}, filepath.Join("results", "CKPT_besst-sim.jsonl")},
		{[]string{"-ckpt", "custom/my.jsonl"}, "custom/my.jsonl"},
		{[]string{"-resume"}, filepath.Join("results", "CKPT_besst-sim.jsonl")},
		{[]string{"-resume", "-ckpt", "elsewhere"}, filepath.Join("elsewhere", "CKPT_besst-sim.jsonl")},
	}
	for _, c := range cases {
		if got := sessionWith(t, c.args...).ckptPath(); got != c.want {
			t.Errorf("ckptPath(%v) = %q, want %q", c.args, got, c.want)
		}
	}
}

func TestCampaignAssembly(t *testing.T) {
	s := sessionWith(t, "-ckpt", "results", "-resume", "-ckpt-every", "7",
		"-workers", "3", "-seed", "9", "-chaos", "0.25")
	camp := s.Campaign("deadbeef")
	if camp.Tool != "besst-sim" || camp.ConfigHash != "deadbeef" {
		t.Errorf("identity fields wrong: %+v", camp)
	}
	if camp.Seed != 9 || camp.Workers != 3 || camp.CkptEvery != 7 || !camp.Resume {
		t.Errorf("flag fields wrong: %+v", camp)
	}
	if camp.Chaos.PanicRate != 0.25 || camp.Chaos.DelayRate != 0.25 {
		t.Errorf("chaos rates wrong: %+v", camp.Chaos)
	}
	if camp.Chaos.Seed == 9 {
		t.Error("chaos seed must differ from the trial master seed")
	}
	if camp.Collector == nil {
		t.Error("campaign lost the session collector")
	}
}

// TestEngineTracerNilUnlessTracing pins the engine tracer to the trace
// buffer alone: -metrics by itself must yield a nil interface (not a
// typed-nil *TraceBuffer, which would put every engine on the
// instrumented path), and -trace must yield the session's buffer.
func TestEngineTracerNilUnlessTracing(t *testing.T) {
	if tr := sessionWith(t).EngineTracer(); tr != nil {
		t.Fatalf("no flags: EngineTracer() = %#v, want nil", tr)
	}
	if tr := sessionWith(t, "-metrics", t.TempDir()).EngineTracer(); tr != nil {
		t.Fatalf("-metrics only: EngineTracer() = %#v, want nil", tr)
	}
	s := sessionWith(t, "-trace", filepath.Join(t.TempDir(), "trace.json"))
	tr := s.EngineTracer()
	if tr == nil {
		t.Fatal("-trace: EngineTracer() = nil, want the trace buffer")
	}
	if buf, ok := tr.(*obs.TraceBuffer); !ok || buf != s.trace {
		t.Fatalf("-trace: EngineTracer() = %#v, want the session's trace buffer", tr)
	}
}
