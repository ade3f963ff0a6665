package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// failWriter refuses every write, like a full disk.
type failWriter struct{}

var errFull = errors.New("no space left on device")

func (failWriter) Write([]byte) (int, error) { return 0, errFull }

var smallRun = []string{"-net", "test", "-duration", "15m"}

func TestRunWritesSeries(t *testing.T) {
	for _, format := range []string{"csv", "json"} {
		var out bytes.Buffer
		if err := run(append(smallRun, "-format", format), &out); err != nil {
			t.Fatalf("-format %s: %v", format, err)
		}
		if out.Len() == 0 {
			t.Fatalf("-format %s wrote nothing", format)
		}
	}
}

// TestRunReportsLostOutput requires a failed write of the series to
// fail the run in both formats, so the command cannot exit 0 when its
// output is lost.
func TestRunReportsLostOutput(t *testing.T) {
	for _, format := range []string{"csv", "json"} {
		err := run(append(smallRun, "-format", format), failWriter{})
		if !errors.Is(err, errFull) {
			t.Fatalf("-format %s to a failing writer: err = %v, want %v", format, err, errFull)
		}
	}
}

func TestRunRefusesUnknownSeriesAndFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-series", "quality"},
		{"-inject", "J1:100:0s:1h"},
		{"-format", "xml"},
	} {
		if err := run(append(smallRun, args...), &bytes.Buffer{}); err == nil {
			t.Fatalf("aquasim %s: no error", strings.Join(args, " "))
		}
	}
}
