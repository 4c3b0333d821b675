// Package jsonl holds the crash-tolerance rule of the simulator's
// append-only JSON-lines journals (the resilience campaign journal and
// the DSE point memo). A record counts only as a whole,
// newline-terminated line: the unterminated fragment a crash mid-append
// leaves at the end is never parsed, and a writer reopening the file
// truncates it to the valid prefix first, so the next record starts a
// fresh line instead of being glued onto the fragment.
package jsonl

import (
	"bytes"
	"os"
)

// Lines calls accept with each whole newline-terminated line of data,
// in order and without its terminator, until accept returns false or
// the whole lines run out. It returns the byte length of the lines
// accepted: the valid prefix, where appending may safely resume.
// Lines of any length are read; the data is already in memory.
func Lines(data []byte, accept func(line []byte) bool) (validLen int64) {
	for {
		rest := data[validLen:]
		i := bytes.IndexByte(rest, '\n')
		if i < 0 || !accept(rest[:i]) {
			return validLen
		}
		validLen += int64(i) + 1
	}
}

// OpenAppend opens the journal at path for appending, creating it if
// needed, after truncating it to validLen (as Lines reported it) so a
// torn tail is dropped before the first new record.
func OpenAppend(path string, validLen int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}
