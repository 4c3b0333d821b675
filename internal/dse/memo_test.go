package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPointHashDistinguishesEveryField(t *testing.T) {
	base := PointHash("b", 5, 8, "l1", 10, 2, 7)
	variants := []string{
		PointHash("b2", 5, 8, "l1", 10, 2, 7),
		PointHash("b", 6, 8, "l1", 10, 2, 7),
		PointHash("b", 5, 9, "l1", 10, 2, 7),
		PointHash("b", 5, 8, "l2", 10, 2, 7),
		PointHash("b", 5, 8, "l1", 11, 2, 7),
		PointHash("b", 5, 8, "l1", 10, 3, 7),
		PointHash("b", 5, 8, "l1", 10, 2, 8),
	}
	seen := map[string]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Fatalf("variant %d collides", i)
		}
		seen[v] = true
	}
	if PointHash("b", 5, 8, "l1", 10, 2, 7) != base {
		t.Fatal("PointHash is not deterministic")
	}
}

func TestMemoLRUEviction(t *testing.T) {
	m := NewMemo(3)
	for i := 0; i < 3; i++ {
		m.Store(fmt.Sprintf("k%d", i), float64(i))
	}
	// Touch k0 so k1 is the least recently used.
	if _, ok := m.Lookup("k0"); !ok {
		t.Fatal("k0 missing")
	}
	m.Store("k3", 3)
	if _, ok := m.Lookup("k1"); ok {
		t.Fatal("k1 survived eviction despite being LRU")
	}
	if _, ok := m.Lookup("k0"); !ok {
		t.Fatal("recently used k0 was evicted")
	}
	st := m.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 3 entries, 1 eviction", st)
	}
}

func TestMemoStoreIsIdempotent(t *testing.T) {
	m := NewMemo(2)
	m.Store("k", 1.5)
	m.Store("k", 1.5)
	st := m.Stats()
	if st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 entry, 0 evictions", st)
	}
	if v, ok := m.Lookup("k"); !ok || v < 1.5 || v > 1.5 {
		t.Fatalf("Lookup = %v, %v", v, ok)
	}
}

func TestMemoJournalRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.jsonl")
	m, err := NewMemoJournal(0, path)
	if err != nil {
		t.Fatal(err)
	}
	m.Store("a", 0.1)
	m.Store("b", 0.25)
	m.Store("a", 0.1) // refresh only: must not re-journal
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := NewMemoJournal(0, path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = again.Close() }()
	st := again.Stats()
	if st.Entries != 2 || st.Journaled != 2 {
		t.Fatalf("restored stats = %+v, want 2 entries from 2 journal lines", st)
	}
	if v, ok := again.Lookup("b"); !ok || v < 0.25 || v > 0.25 {
		t.Fatalf("restored b = %v, %v", v, ok)
	}
}

// TestMemoJournalTornTail proves a crash mid-append cannot poison the
// cache: the torn final line is skipped, everything before it loads.
func TestMemoJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.jsonl")
	m, err := NewMemoJournal(0, path)
	if err != nil {
		t.Fatal(err)
	}
	m.Store("a", 0.1)
	m.Store("b", 0.25)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(data, []byte(`{"key":"c","me`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	again, err := NewMemoJournal(0, path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = again.Close() }()
	if st := again.Stats(); st.Entries != 2 {
		t.Fatalf("restored %d entries from a torn journal, want 2", st.Entries)
	}
	if _, ok := again.Lookup("c"); ok {
		t.Fatal("torn line restored as an entry")
	}
}

// TestMemoJournalAppendsAfterTornTail reopens a journal that ends in a
// torn line, stores a key and reopens it again: the key must be back.
// Appending onto the fragment would glue the new line to it and lose
// the key.
func TestMemoJournalAppendsAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.jsonl")
	if err := os.WriteFile(path, []byte(`{"key":"a","mean":0.1}`+"\n"+`{"key":"c","me`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewMemoJournal(0, path)
	if err != nil {
		t.Fatal(err)
	}
	m.Store("b", 0.25)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := NewMemoJournal(0, path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = again.Close() }()
	for key, want := range map[string]float64{"a": 0.1, "b": 0.25} {
		if v, ok := again.Lookup(key); !ok || v < want || v > want {
			t.Fatalf("restored %s = %v, %v, want %v", key, v, ok, want)
		}
	}
}

// TestMemoJournalLongLine restores around a 2 MiB garbage line: the
// line is skipped, the entries on both sides load and the memo opens.
func TestMemoJournalLongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.jsonl")
	lines := `{"key":"a","mean":0.5}` + "\n" + strings.Repeat("x", 2<<20) + "\n" + `{"key":"b","mean":0.75}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewMemoJournal(0, path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if st := m.Stats(); st.Entries != 2 || st.Journaled != 2 {
		t.Fatalf("stats = %+v, want 2 entries restored around the long line", st)
	}
}

// TestMemoJournalFirstSeenWins pins replay semantics: a key journaled
// twice (two processes sharing a journal) restores its first value —
// means are pure functions of the key, so any duplicate is identical
// in a healthy journal, and deterministic restore must not depend on
// which process appended last.
func TestMemoJournalFirstSeenWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.jsonl")
	lines := strings.Join([]string{
		`{"key":"a","mean":0.5}`,
		`{"key":"a","mean":0.75}`,
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewMemoJournal(0, path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if v, ok := m.Lookup("a"); !ok || v < 0.5 || v > 0.5 {
		t.Fatalf("restored a = %v, %v, want first-seen 0.5", v, ok)
	}
}

func TestMemoStatsCounters(t *testing.T) {
	m := NewMemo(8)
	if _, ok := m.Lookup("missing"); ok {
		t.Fatal("hit on empty memo")
	}
	m.Store("k", 2.0)
	if _, ok := m.Lookup("k"); !ok {
		t.Fatal("miss on stored key")
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Capacity != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

// FuzzMemoJournal opens a memo over arbitrary existing journal bytes.
// With room for every line, opening must succeed and restore each key
// on a whole, decodable line with its first-seen mean; after storing a
// fresh key, closing and reopening, that key and all the earlier ones
// must be back. A torn tail or a garbage line in the way of the append
// would lose the fresh key.
func FuzzMemoJournal(f *testing.F) {
	f.Add([]byte(`{"key":"a","mean":0.1}` + "\n" + `{"key":"c","me`))
	f.Add([]byte(`{"key":"a","mean":0.5}` + "\nnot json\n" + `{"key":"b","mean":0.75}` + "\n"))
	f.Add([]byte(`{"key":"a","mean":0.5}` + "\n" + strings.Repeat("x", 70<<10) + "\n" + `{"key":"b","mean":2}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "memo.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		capacity := bytes.Count(data, []byte("\n")) + 2
		want := map[string]float64{}
		lines := bytes.Split(data, []byte("\n"))
		for _, line := range lines[:len(lines)-1] { // the last piece is unterminated
			var rec memoRecord
			if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
				continue
			}
			if _, seen := want[rec.Key]; !seen {
				want[rec.Key] = rec.Mean
			}
		}
		fresh := "fresh"
		for _, taken := want[fresh]; taken; _, taken = want[fresh] {
			fresh += "'"
		}

		m, err := NewMemoJournal(capacity, path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		check := func(m *Memo, stage string) {
			t.Helper()
			for key, mean := range want {
				if got, ok := m.Lookup(key); !ok || math.Float64bits(got) != math.Float64bits(mean) {
					t.Fatalf("%s: key %q = %v, %v, want %v", stage, key, got, ok, mean)
				}
			}
		}
		check(m, "open")
		m.Store(fresh, 0.5)
		want[fresh] = 0.5
		if err := m.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		again, err := NewMemoJournal(capacity, path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer func() { _ = again.Close() }()
		check(again, "reopen")
	})
}
