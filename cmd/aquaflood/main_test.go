package main

import (
	"bytes"
	"errors"
	"testing"
)

// failWriter refuses every write, like a full disk.
type failWriter struct{}

var errFull = errors.New("no space left on device")

func (failWriter) Write([]byte) (int, error) { return 0, errFull }

var smallRun = []string{"-net", "test", "-leak", "J3:0.002", "-duration", "5m", "-cell", "80"}

func TestRunWritesReport(t *testing.T) {
	var out bytes.Buffer
	if err := run(smallRun, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("max-depth map")) {
		t.Fatalf("report lacks the depth map:\n%s", out.String())
	}
}

// TestRunReportsLostOutput requires a failed write of the report to
// fail the run, so the command cannot exit 0 when its output is lost.
func TestRunReportsLostOutput(t *testing.T) {
	if err := run(smallRun, failWriter{}); !errors.Is(err, errFull) {
		t.Fatalf("run to a failing writer: err = %v, want %v", err, errFull)
	}
}
