//go:build amd64 && !amd64.v3

// The pinned digests are float-bit exact. GOAMD64=v3 and other
// architectures may fuse multiply-adds, which legitimately moves bits,
// so the golden only runs where it was recorded.

package mlearn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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
	"linear":     "c86bc38a5f1aaea87ec78768ddeb10adedf7e726c86cbbee0018854c8be1b8ed",
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

// predictGolden pins the SHA-256 of PredictProba's float bits for every
// registered technique fitted on the same 160-sample EPA-NET dataset as
// saveGolden, over the probes arenaProbes builds for each junction
// column: its base rows, a tie and the next float above it at every
// split, and NaN, +Inf and -Inf at every root split feature. Columns of
// the linear family, which have no trees, take the probes of the rf
// technique's tree for the same column. Changes to how a fitted model
// is stored or evaluated must leave every digest untouched.
var predictGolden = map[string]string{
	"linear":     "c3beae378951f8377b1a8ec21860a8f7c3c1ef29f70cf8c45a99095cc1c492d1",
	"logistic":   "1a8fa591d2428fe642862e74a7bc62d859af442e539ac8a7e5a6c403ba2078a9",
	"gb":         "fbf3af2ada7a851406a6cde4b0cedc129fb9e031fda923a64c001e75475cd1e8",
	"rf":         "53a6f926966c8e6106c967eb5946dc18cb5ff3daf6fce3f6f094e86d031b7493",
	"svm":        "f1d4610ae22e16984f19c6b075d86a05f758ae37323ed07c67adac15497f5cdf",
	"hybrid-rsl": "a230817132b26a696f9a3639b44d6dc9294cebb7ec4a935aa2d91c52f3a5307d",
}

func TestPredictGolden(t *testing.T) {
	x, y := epanetData(t, 160)
	base := append([][]float64{make([]float64, len(x[0]))}, x[:8]...)
	fit := func(name string) *MultiOutput {
		mo := NewMultiOutput(namedFactory(t, name), 77)
		if err := mo.Fit(x, y); err != nil {
			t.Fatalf("%s: Fit: %v", name, err)
		}
		return mo
	}
	rf := fit("rf")
	names := make([]string, 0, len(predictGolden))
	for name := range predictGolden {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			mo := rf
			if name != "rf" {
				mo = fit(name)
			}
			h := sha256.New()
			var word [8]byte
			probes := 0
			for v, c := range mo.models {
				a := fittedArena(c)
				if a == nil {
					a = fittedArena(rf.models[v])
				}
				for _, p := range arenaProbes(a, base) {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(c.PredictProba(p)))
					h.Write(word[:])
					probes++
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != predictGolden[name] {
				t.Errorf("PredictProba digest over %d probes = %s, want %s", probes, got, predictGolden[name])
			}
		})
	}
}
