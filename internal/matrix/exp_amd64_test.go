package matrix

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestExpKernelOffWithoutFMA re-runs TestExpToIdentity in a process where
// math.Exp takes its non-FMA path (GODEBUG=cpu.fma=off) and requires the
// start-up probe to have switched the kernel off there, while CPUID still
// reports FMA.
func TestExpKernelOffWithoutFMA(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		if expKernel {
			t.Fatal("kernel selected although math.Exp runs without FMA")
		}
		return
	}
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2/FMA: the kernel is never selected")
	}
	if !expKernel {
		t.Fatal("AVX2/FMA present but the start-up probe refused the kernel")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^(TestExpKernelOffWithoutFMA|TestExpToIdentity)$", "-test.short", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "kernel selected: false") {
		t.Fatalf("GODEBUG=cpu.fma=off subprocess: %v\n%s", err, out)
	}
}
