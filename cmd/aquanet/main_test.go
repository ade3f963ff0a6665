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

func TestRunWritesReport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-net", "test", "-stats", "-check", "-map"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"network: ", "validation: ok", "plan of "} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunReportsLostOutput requires a failed write to fail the run for
// every report, so the command cannot exit 0 when its output is lost.
func TestRunReportsLostOutput(t *testing.T) {
	for _, args := range [][]string{
		{"-stats"},
		{"-check"},
		{"-map"},
		{"-export", filepath.Join(t.TempDir(), "test.inp")},
	} {
		if err := run(append([]string{"-net", "test"}, args...), failWriter{}); !errors.Is(err, errFull) {
			t.Fatalf("%v to a failing writer: err = %v, want %v", args, err, errFull)
		}
	}
}
