package jsonl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLinesStopsAtRejectOrFragment(t *testing.T) {
	data := []byte("a\nbb\nstop\nc\ntorn")
	var got []string
	n := Lines(data, func(line []byte) bool {
		got = append(got, string(line))
		return string(line) != "stop"
	})
	if strings.Join(got, ",") != "a,bb,stop" || n != int64(len("a\nbb\n")) {
		t.Fatalf("lines %q, valid length %d", got, n)
	}
	got = nil
	n = Lines(data, func(line []byte) bool { got = append(got, string(line)); return true })
	if strings.Join(got, ",") != "a,bb,stop,c" || n != int64(len(data)-len("torn")) {
		t.Fatalf("lines %q, valid length %d: the unterminated fragment must not count", got, n)
	}
}

func TestOpenAppendTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("a\ntorn"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenAppend(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("b\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "a\nb\n" {
		t.Fatalf("journal %q, want %q", data, "a\nb\n")
	}
}
