// Command perfbench is the repository benchmark: it drives one workload
// through the public functions of the serving, core, dataset, hydraulic,
// matrix and mlearn packages, checks the outputs, and prints the
// metrics declared in BENCHMARK.json as one JSON object on the last line
// of standard output.
//
//	perfbench --workload observe-mix --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every layer call instead, writes them under
// .bench_build/traces, and reports the per-layer metrics. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for this run, removed at exit
	tiny     bool   // smoke-test scale (the benchmark's own tests)
}

// runResult is what a workload hands back to main.
type runResult struct {
	correct   bool
	attempted int64
	failed    int64
	m         *metricSet
	digest    string // SHA-256 of the generated inputs
	notes     []string
	breakdown map[string]any
	tr        *tracer
}

func newRunResult(cfg runConfig) *runResult {
	r := &runResult{correct: true, breakdown: map[string]any{}}
	if cfg.trace {
		r.m = newMetricSet(perLayer)
		r.tr = newTracer()
	} else {
		r.m = newMetricSet(endToEnd)
	}
	return r
}

// count adds operations attempted and failed.
func (r *runResult) count(attempted, failed int) {
	r.attempted += int64(attempted)
	r.failed += int64(failed)
}

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check fails the run's correctness when ok is false.
func (r *runResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		r.note("CHECK FAILED: "+format, args...)
	}
}

// checkGate applies the served-vs-offline gate.
func (r *runResult) checkGate(g gateResult) {
	r.check(g.failed == 0, "%d of %d gate requests failed", g.failed, g.requests)
	r.check(g.mismatches == 0, "%d of %d served results differ from offline System.Localize", g.mismatches, g.requests)
	r.check(g.hamming >= 0 && g.hamming <= 1, "served hamming %v outside [0,1]", g.hamming)
}

var runners = map[string]func(runConfig) (*runResult, error){
	"observe-mix":    runObserveMix,
	"profile-epanet": runProfileEPANet,
	"corpus-grid":    runCorpusGrid,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fset.String("workload", "", "workload to run: observe-mix, profile-epanet or corpus-grid")
	seed := fset.Int64("seed", 1, "seed every input is generated from")
	seconds := fset.Float64("seconds", 30, "measurement time per run")
	trace := fset.Int("trace", 0, "1 records spans and reports per-layer metrics")
	outDir := fset.String("out", ".bench_build", "directory for scratch files, results and traces")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if _, ok := runners[*workload]; !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	return execute(cfg, *outDir, out)
}

// execute runs one workload and writes its record, result and trace.
func execute(cfg runConfig, outDir string, out io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.work = work

	start := time.Now()
	res, err := runners[cfg.workload](cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if !cfg.trace {
		res.m.set("max_rss_mib", maxRSSMiB())
	}
	if miss := res.m.missing(); len(miss) > 0 {
		sort.Strings(miss)
		return fmt.Errorf("%s: metrics not measured: %s", cfg.workload, strings.Join(miss, ", "))
	}

	rec := map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go":            runtime.Version(),
		"commit":        gitCommit("."),
		"source_digest": sourceDigest("."),
		"input_digest":  res.digest,
		"wall_s":        time.Since(start).Seconds(),
	}
	result := map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.m.vals,
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	if cfg.trace {
		if err := res.tr.write(filepath.Join(outDir, "traces", tag+".json"), res.breakdown); err != nil {
			return err
		}
	}
	full, err := json.MarshalIndent(map[string]any{"record": rec, "result": result, "notes": res.notes}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(outDir, "results"), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results", tag+".json"), full, 0o644); err != nil {
		return err
	}

	for _, n := range res.notes {
		fmt.Fprintln(out, "note:", n)
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "record:", string(recLine))
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// gitCommit reads HEAD from a .git directory under root, or returns
// "unknown" when root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == name {
				return f[0]
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// dot-directories), identifying the code measured even where the
// checkout carries no git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if raw, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(raw))
				h.Write(raw)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
