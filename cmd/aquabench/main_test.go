package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// failWriter refuses every write, like a full disk.
type failWriter struct{}

var errFull = errors.New("no space left on device")

func (failWriter) Write([]byte) (int, error) { return 0, errFull }

func TestRunWritesFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "fig2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("[fig2 completed in ")) {
		t.Fatalf("no timing line:\n%s", out.String())
	}
}

// TestRunReportsLostOutput requires a failed write to stdout to fail
// the run: the -list path, and a figure written to stdout and an -out
// file at once.
func TestRunReportsLostOutput(t *testing.T) {
	if err := run([]string{"-list"}, failWriter{}); !errors.Is(err, errFull) {
		t.Fatalf("-list to a failing writer: err = %v, want %v", err, errFull)
	}
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := run([]string{"-run", "fig2", "-out", path}, failWriter{}); !errors.Is(err, errFull) {
		t.Fatalf("-run fig2 -out to a failing stdout: err = %v, want %v", err, errFull)
	}
}
