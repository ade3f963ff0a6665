// Package clitest checks a command's main function from its own tests by
// re-running the test binary as a child process that calls main.
package clitest

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childEnv marks the child process; its value is the test to run there.
const childEnv = "AQUASCALE_CLITEST_CHILD"

// HelpExitsZero requires main, run with just -h, to print its usage and
// exit 0. Call it from a test of the command's package, passing main.
func HelpExitsZero(t *testing.T, main func()) {
	t.Helper()
	if os.Getenv(childEnv) == t.Name() {
		os.Args = []string{os.Args[0], "-h"}
		main()
		return // main returned: the child exits 0 with this test passed
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), childEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v, want exit 0\n%s", err, out)
	}
	if !strings.Contains(string(out), "Usage of") {
		t.Fatalf("-h printed no usage:\n%s", out)
	}
}
