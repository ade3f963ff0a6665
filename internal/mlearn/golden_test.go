//go:build amd64 && !amd64.v3

// The pinned digests are float-bit exact. GOAMD64=v3 and other
// architectures may fuse multiply-adds, which legitimately moves bits,
// so the golden only runs where it was recorded.

package mlearn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"sort"
	"testing"
)

// saveGolden pins the SHA-256 of MultiOutput.Save for every registered
// technique fitted on the fixed 160-sample EPA-NET dataset below. Any
// change to fitting that moves a single float bit changes a digest;
// refactors and speedups must leave all six untouched.
//
// gob numbers wire types in the order a process first encodes them, so
// Save bytes depend on what the process serialized earlier. The test
// therefore re-runs itself in a fresh process that fits and saves the
// techniques in sorted order and nothing else.
var saveGolden = map[string]string{
	"linear":     "e96864c3c8941240a62ca7227dce4f3a8235560d9b920ba4876da0381f33f38f",
	"logistic":   "b872bb4a072a80ba40fd8070ca1691244eac542c4b47471fe6ecb9e20223c9d5",
	"gb":         "f823978f58a05f47899472419def92906bc1b3a4efc89b5a5f49d6c1b5e06c33",
	"rf":         "a28edfe3273bb40758531dcdb26476c3f73ec1ad79bc839f7fc68d04bcc21113",
	"svm":        "bad5ca735fec1aaecb56ca99c893af60ab390e7e5f3cb7c845df3bae742b118b",
	"hybrid-rsl": "d31b28c0c4aed11796d41e10d41a34bce5e53a242fb3e6390a1b73596ed08dbd",
}

const saveGoldenChild = "MLEARN_SAVE_GOLDEN_CHILD"

func TestMultiOutputSaveGolden(t *testing.T) {
	if os.Getenv(saveGoldenChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMultiOutputSaveGolden$", "-test.v")
		cmd.Env = append(os.Environ(), saveGoldenChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestMultiOutputSaveGolden/svm")) {
			t.Fatalf("golden subprocess: %v\n%s", err, out)
		}
		return
	}
	x, y := epanetData(t, 160)
	names := make([]string, 0, len(saveGolden))
	for name := range saveGolden {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := saveGolden[name]
		t.Run(name, func(t *testing.T) {
			mo := NewMultiOutput(namedFactory(t, name), 77)
			if err := mo.Fit(x, y); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			var buf bytes.Buffer
			if err := mo.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("Save digest = %s, want %s", got, want)
			}
		})
	}
}
