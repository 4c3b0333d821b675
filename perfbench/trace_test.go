package main

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	parent := Span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []Span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []Span{{Start: 110, End: 130}}, 80},
		{"disjoint children", []Span{{Start: 110, End: 130}, {Start: 150, End: 160}}, 70},
		{"overlapping children count once", []Span{{Start: 110, End: 140}, {Start: 120, End: 150}}, 60},
		{"nested child inside another", []Span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"children out of order", []Span{{Start: 150, End: 160}, {Start: 110, End: 130}}, 70},
		{"touching children", []Span{{Start: 110, End: 120}, {Start: 120, End: 130}}, 80},
		{"child sticking out is clipped", []Span{{Start: 50, End: 120}, {Start: 190, End: 250}}, 70},
		{"child outside the parent", []Span{{Start: 10, End: 90}, {Start: 200, End: 300}}, 100},
		{"children cover everything", []Span{{Start: 90, End: 160}, {Start: 150, End: 210}}, 0},
		{"empty child", []Span{{Start: 120, End: 120}}, 100},
	} {
		if got := SelfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestChildrenOfAndRecorder(t *testing.T) {
	rec := NewRecorder()
	root := rec.Time("root", "c1", 0, func() {})
	rec.Add(Span{Parent: root.ID, Name: "a", Start: root.Start, End: root.End})
	rec.Add(Span{Parent: 99, Name: "b"})
	kids := ChildrenOf(rec.Spans(), root.ID)
	if len(kids) != 1 || kids[0].Name != "a" {
		t.Fatalf("children of root: %+v", kids)
	}
	if got := rec.Named("root"); len(got) != 1 || got[0].Campaign != "c1" || got[0].ID != root.ID {
		t.Fatalf("named root: %+v", got)
	}
	var off *Recorder
	if off.On() {
		t.Fatal("a nil recorder reports recording on")
	}
}

// TestConcurrentRecording drives the recorder and a bracket collector
// from several goroutines at once, as concurrent shards and sweep points
// do; run it with -race.
func TestConcurrentRecording(t *testing.T) {
	rec := NewRecorder()
	col := newBracketCollector(rec, "point", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := g*50 + i
				col.PointStart(k)
				rec.SetParent(fmt.Sprint(g), int64(k))
				_ = rec.Parent(fmt.Sprint(g))
				col.EngineTotals(2, i)
				col.PointDone(k)
			}
		}(g)
	}
	wg.Wait()
	if n := len(rec.Named("point")); n != 400 {
		t.Errorf("%d point spans, want 400", n)
	}
	if events, peak := col.totals(); events != 800 || peak != 49 {
		t.Errorf("engine totals %d events, peak %d; want 800, 49", events, peak)
	}
}
