package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// runCLI runs aquatrain with args and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("aquatrain %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// hammingLine returns the held-out score line of one run's output.
func hammingLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "held-out mean Hamming score") {
			return line
		}
	}
	t.Fatalf("no held-out score line in output:\n%s", out)
	return ""
}

// TestCLICorpusOutIn drives the out-of-core CLI end to end: a
// -corpus-out run and a -corpus-in run over its directory print the
// same held-out score, -resume over the finished corpus writes no
// shard, and a -corpus-in run with another technique trains fresh
// instead of refusing the earlier run's training checkpoint.
func TestCLICorpusOutIn(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-net", "test", "-samples", "48", "-test", "5", "-shard-samples", "16"}
	with := func(extra ...string) []string {
		return append(append([]string{}, base...), extra...)
	}

	outRun := runCLI(t, with("-corpus-out", dir, "-technique", "linear")...)
	inRun := runCLI(t, with("-corpus-in", dir, "-technique", "linear")...)
	if got, want := hammingLine(t, inRun), hammingLine(t, outRun); got != want {
		t.Fatalf("-corpus-in score %q, -corpus-out score %q", got, want)
	}

	resumed := runCLI(t, with("-corpus-out", dir, "-resume", "-technique", "linear")...)
	if !strings.Contains(resumed, "(0 written, 3 resumed)") {
		t.Fatalf("-resume over a finished corpus regenerated shards:\n%s", resumed)
	}

	runCLI(t, with("-corpus-in", dir, "-technique", "rf")...)
}
