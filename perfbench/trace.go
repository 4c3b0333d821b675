package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"besst/internal/stats"
)

// Span is one timed call into a layer, recorded from the benchmark's
// side of the layer boundary.
type Span struct {
	ID     int64 `json:"id"`
	Parent int64 `json:"parent,omitempty"` // 0: root
	// Campaign is the campaign ID the span belongs to (empty for
	// in-process layer probes).
	Campaign string `json:"campaign,omitempty"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the recorder's epoch
	End      int64  `json:"end_ns"`
	// Units and Bytes are the work the span covered, where it has them.
	Units int   `json:"units,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory until the run ends. Recording can be
// switched off between campaigns, which the closed loop uses to
// alternate traced and untraced campaigns.
type Recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	on     atomic.Bool

	mu    sync.Mutex
	spans []Span // guarded by mu
	// parents maps a campaign ID to the open span that wraps its
	// backend call, so shard spans find their parent.
	parents map[string]int64 // guarded by mu
}

// NewRecorder starts a recorder with recording on.
func NewRecorder() *Recorder {
	r := &Recorder{epoch: time.Now(), parents: make(map[string]int64)}
	r.on.Store(true)
	return r
}

// On reports whether spans are being recorded. A nil recorder is off.
func (r *Recorder) On() bool { return r != nil && r.on.Load() }

// SetOn switches recording.
func (r *Recorder) SetOn(on bool) { r.on.Store(on) }

// Now is the time since the recorder's epoch, in nanoseconds.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// NewID reserves a span ID for a span that is still open.
func (r *Recorder) NewID() int64 { return r.nextID.Add(1) }

// Add stores a finished span, assigning an ID if it has none.
func (r *Recorder) Add(s Span) int64 {
	if s.ID == 0 {
		s.ID = r.NewID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// Time runs fn inside a span and returns the span.
func (r *Recorder) Time(name, campaign string, parent int64, fn func()) Span {
	s := Span{ID: r.NewID(), Parent: parent, Campaign: campaign, Name: name, Start: r.Now()}
	fn()
	s.End = r.Now()
	r.Add(s)
	return s
}

// SetParent registers the open span that parents a campaign's shards.
func (r *Recorder) SetParent(campaign string, id int64) {
	r.mu.Lock()
	r.parents[campaign] = id
	r.mu.Unlock()
}

// Parent returns the open span registered for a campaign, or 0.
func (r *Recorder) Parent(campaign string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.parents[campaign]
}

// Spans returns a copy of the recorded spans, ordered by start.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Named returns the recorded spans with the given name, by start.
func (r *Recorder) Named(name string) []Span {
	var out []Span
	for _, s := range r.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes every span as one JSON object per line.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// SelfTime is the part of parent's interval that none of the child
// spans covers. Children may overlap each other (concurrent shards or
// sweep points) and may stick out of the parent; only their union
// clipped to the parent is subtracted.
func SelfTime(parent Span, children []Span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += curHi - curLo
	}
	return parent.Dur() - time.Duration(covered)
}

// ChildrenOf returns the spans whose parent is id.
func ChildrenOf(spans []Span, id int64) []Span {
	var out []Span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// Quantile is the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It is NaN for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Percentile(xs, 100*q)
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// durMS converts span durations to milliseconds.
func durMS(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.Dur()) / 1e6
	}
	return out
}
