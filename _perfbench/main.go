// Command perfbench is the repository benchmark. It runs one workload
// for a fixed host time, repeating whole passes over the workload's
// cells, checks every cell against the committed golden digests, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	bash _perfbench/run.sh --workload fig-small --seed 1 --seconds 45 --trace 0
//
// Workloads, metrics and how to read a traced run are described in
// _perfbench/README.md.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"rowsim/internal/experiments"
)

// outDir receives traces and temporary files; it is the build directory
// the launcher already uses, so nothing is written elsewhere.
const outDir = ".bench_build/perfbench"

// deadline bounds one invocation's total host time.
const deadline = 170 * time.Second

// passOut is one pass over a workload's cells.
type passOut struct {
	Traced bool
	Warmup bool
	// Group is the input group the pass ran (pass n runs group
	// n mod the workload's passes).
	Group  int
	WallS  float64
	SetupS float64
	// Committed counts simulated instructions committed by cells this
	// pass computed (memo hits are not counted twice).
	Committed  uint64
	AllocBytes uint64
	// Turnarounds are per-cell (sequential workloads) or per-sweep
	// (serve-ckpt) host times from submission to checked result.
	Turnarounds []float64

	Cells []goldenCell
	Errs  []error
	// Failures found outside the per-cell digests (for example a memo
	// resubmission that did not match the computed results doc).
	Extra []string

	Counts counts
	// Traced passes only: self time per span name, heap bytes per sim
	// phase, and workload-specific per-layer values.
	Self map[string]float64
	// ReplayS is the host time a traced serve-ckpt pass spends
	// replaying its cells directly after the daemon part (WallS).
	ReplayS                             float64
	ConstructAlloc, WarmAlloc, RunAlloc uint64
	Layer                               map[string]float64
}

// goldenDir holds the committed golden digests, relative to the
// repository root the benchmark runs from.
const goldenDir = "_perfbench/golden"

// passFunc runs pass n of a workload at a seed.
type passFunc func(ctx context.Context, tr *tracer, seed uint64, n int) (*passOut, error)

// benchWorkload is one benchmark workload: its pass, and how many passes it
// takes to run every cell of a seed once (passes after that repeat).
// README.md says why each was chosen.
type benchWorkload struct {
	pass   passFunc
	passes int
}

var workloads = map[string]benchWorkload{
	"fig-small":  {sequentialPass("fig-small"), 1},
	"paper-long": {sequentialPass("paper-long"), 1},
	"serve-ckpt": {servePass, servePasses},
}

func main() { os.Exit(run()) }

func run() int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wlName := flags.String("workload", "", "workload: fig-small, paper-long or serve-ckpt")
	seedFlag := flags.Uint64("seed", 1, "workload seed (0 selects the default seed 1)")
	seconds := flags.Float64("seconds", 30, "host seconds to measure for")
	traceFlag := flags.Int("trace", 0, "1 = traced run: print per-layer metrics")
	update := flags.Bool("update-golden", false, "record one pass as the golden digests for this seed, then exit")
	if err := flags.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloads[*wlName]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fig-small|paper-long|serve-ckpt, --seconds > 0, --trace 0|1\n")
		return 2
	}
	seed := *seedFlag
	if seed == 0 {
		seed = experiments.DefaultSeed
	}
	traced := *traceFlag == 1
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	if *update {
		var cells []goldenCell
		var err error
		for n := 0; n < wl.passes && err == nil; n++ {
			var p *passOut
			if p, err = wl.pass(ctx, nil, seed, n); err != nil {
				break
			}
			for _, e := range p.Errs {
				if e != nil {
					err = e
				}
			}
			if len(p.Extra) > 0 {
				err = errors.New(p.Extra[0])
			}
			cells = append(cells, p.Cells...)
		}
		if err == nil {
			err = writeGolden(goldenDir, *wlName, seed, cells)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: update golden: %v\n", err)
			return 1
		}
		fmt.Printf("golden %s seed %d: %d cells\n", *wlName, seed, len(cells))
		return 0
	}

	golden, err := loadGolden(goldenDir, *wlName, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	want := map[string]goldenCell{}
	for _, c := range golden {
		want[c.Cell] = c
	}
	fp := fingerprint(*wlName, seed, traced)
	fpJSON, _ := json.Marshal(fp) // a map of strings and numbers always encodes
	fmt.Printf("fingerprint %s\n", fpJSON)
	learn := len(golden) == 0
	if learn {
		fmt.Printf("golden: none committed for %s seed %d; each cell is checked against its first run\n", *wlName, seed)
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var passes []*passOut
	var failures []string
	attempted, failed := 0, 0
	start := time.Now()
	// The first pass warms the process up (heap growth, first-touch
	// page faults) and is checked but not measured; at least one pass
	// per input group follows it. A traced run instead alternates traced
	// and untraced passes, so the tracing overhead is measured over the
	// same stretch of host time.
	minPasses := 1 + wl.passes
	if traced {
		minPasses = 3
	}
	for i := 0; time.Since(start).Seconds() < *seconds || i < minPasses; i++ {
		ptr, n := (*tracer)(nil), i
		if traced {
			// Each traced pass and the untraced pass after it run the
			// same input group, so their difference is the overhead.
			n = (i + 1) / 2
			if i%2 == 1 {
				ptr = tr
			}
		}
		p, err := wl.pass(ctx, ptr, seed, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %v\n", i, err)
			return 1
		}
		p.Traced = ptr != nil
		p.Warmup = i == 0
		p.Group = n % wl.passes
		if learn {
			for _, c := range p.Cells {
				if _, ok := want[c.Cell]; !ok {
					want[c.Cell] = c // later runs of the cell must repeat it exactly
				}
			}
		}
		bad, n := checkCells(p.Cells, p.Errs, want)
		attempted += len(p.Cells)
		failed += min(len(p.Cells), n+len(p.Extra))
		failures = append(append(failures, bad...), p.Extra...)
		passes = append(passes, p)
	}
	for _, f := range failures {
		fmt.Printf("FAIL %s\n", f)
	}

	e2e, turnaround := endToEnd(*wlName, passes)
	printReport(append(e2e, turnaround))
	fmt.Printf("%-36s %16.6g %-8s %d of %d cells\n", "fail_ratio", ratio(float64(failed), float64(attempted)), "ratio", failed, attempted)
	metrics := e2e
	if traced {
		metrics = perLayer(passes)
		printReport(metrics)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", *wlName, seed))
		if err := tr.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace written to %s\n", path)
	}
	out := map[string]any{
		"correct":   len(failures) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics.json(),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// metric is one named value with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

type metricSet []metric

func (ms metricSet) json() map[string]any {
	m := make(map[string]any, len(ms))
	for _, x := range ms {
		m[x.Name] = map[string]any{"value": x.Value, "unit": x.Unit}
	}
	return m
}

func printReport(ms metricSet) {
	for _, m := range ms {
		fmt.Printf("%-36s %16.6g %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// collect returns f applied to every measured pass with the given
// traced flag.
func collect(passes []*passOut, traced bool, f func(*passOut) float64) []float64 {
	var xs []float64
	for _, p := range passes {
		if p.Traced == traced && !p.Warmup {
			xs = append(xs, f(p))
		}
	}
	return xs
}

// groupMedian returns, over the measured untraced passes, the mean over
// input groups of the median of f over each group's passes. Passes of
// one group repeat the same inputs, so the median damps host noise;
// the mean weighs every group equally, so a run stands for all of its
// seed's inputs however many passes each group got.
func groupMedian(passes []*passOut, f func(*passOut) float64) float64 {
	byGroup := map[int][]float64{}
	for _, p := range passes {
		if !p.Traced && !p.Warmup {
			byGroup[p.Group] = append(byGroup[p.Group], f(p))
		}
	}
	sum := 0.0
	for _, xs := range byGroup {
		sum += median(xs)
	}
	return ratio(sum, float64(len(byGroup)))
}

// endToEnd computes the user-visible metrics over the untraced passes
// (see groupMedian). The turnaround median is reported beside them but
// not gated (README.md says why).
func endToEnd(wl string, passes []*passOut) (gated metricSet, turnaround metric) {
	med := func(f func(*passOut) float64) float64 { return groupMedian(passes, f) }
	var turn []float64
	for _, p := range passes {
		if !p.Traced && !p.Warmup {
			turn = append(turn, p.Turnarounds...)
		}
	}
	n := len(collect(passes, false, func(p *passOut) float64 { return 0 }))
	turnNote := fmt.Sprintf("median of %d cells", len(turn))
	if wl == "serve-ckpt" {
		turnNote = fmt.Sprintf("median of %d sweeps", len(turn))
	}
	var peak syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &peak) // cannot fail for RUSAGE_SELF
	wall := med(func(p *passOut) float64 { return p.WallS })
	return metricSet{
		{"wall_s", wall, "s", fmt.Sprintf("%d passes", n)},
		{"setup_s", med(func(p *passOut) float64 { return p.SetupS }), "s", ""},
		{"sim_instrs_per_s", ratio(med(func(p *passOut) float64 { return float64(p.Committed) }), wall), "instr/s", ""},
		{"alloc_mb", med(func(p *passOut) float64 { return float64(p.AllocBytes) / 1e6 }), "MB", ""},
		{"max_rss_mb", float64(peak.Maxrss) / 1024, "MB", "peak of the process"},
	}, metric{"turnaround_s_p50", median(turn), "s", turnNote + " (not gated)"}
}

// perLayer computes the per-layer metrics over the traced passes.
func perLayer(passes []*passOut) metricSet {
	med := func(f func(*passOut) float64) float64 { return median(collect(passes, true, f)) }
	self := func(name string) func(*passOut) float64 {
		return func(p *passOut) float64 { return p.Self[name] }
	}
	layer := func(name string) func(*passOut) float64 {
		return func(p *passOut) float64 { return p.Layer[name] }
	}
	cnt := func(f func(c *counts) float64) float64 { return med(func(p *passOut) float64 { return f(&p.Counts) }) }
	mb := func(b uint64) float64 { return float64(b) / 1e6 }
	layerSelf := []string{"workload.generate", "sim.construct", "sim.warm", "sim.run", "sim.restore",
		"checkpoint.save", "checkpoint.load",
		"serve.open", "serve.admit", "serve.poll", "serve.results", "serve.memo_sweep", "serve.drain"}
	tracedWall := med(func(p *passOut) float64 { return p.WallS })
	untracedWall := median(collect(passes, false, func(p *passOut) float64 { return p.WallS }))
	// unattributed is the traced host time (hop snapshots excluded) that
	// no layer's self time explains.
	unattributed := med(func(p *passOut) float64 {
		s := p.WallS + p.ReplayS
		for _, n := range layerSelf {
			s -= p.Self[n]
		}
		return s
	})
	return metricSet{
		{"workload.generate_s", med(self("workload.generate")), "s", "self time"},
		{"sim.construct_s", med(self("sim.construct")), "s", "self time"},
		{"sim.construct_alloc_mb", med(func(p *passOut) float64 { return mb(p.ConstructAlloc) }), "MB", ""},
		{"sim.warm_s", med(self("sim.warm")), "s", "self time"},
		{"sim.warm_alloc_mb", med(func(p *passOut) float64 { return mb(p.WarmAlloc) }), "MB", ""},
		{"sim.run_s", med(self("sim.run")), "s", "self time (checkpoint saves excluded)"},
		{"sim.run_alloc_mb", med(func(p *passOut) float64 { return mb(p.RunAlloc) }), "MB", ""},
		{"sim.cycles", cnt(func(c *counts) float64 { return float64(c.Cycles) }), "count", ""},
		{"sim.cycles_visited", cnt(func(c *counts) float64 { return float64(c.CyclesVisited) }), "count", ""},
		{"sim.skip_eff", cnt(func(c *counts) float64 { return 1 - ratio(float64(c.CyclesVisited), float64(c.Cycles)) }), "ratio", ""},
		{"sim.run_ns_per_visited_cycle", med(func(p *passOut) float64 {
			return ratio(p.Self["sim.run"]*1e9, float64(p.Counts.CyclesVisited))
		}), "ns", ""},
		{"sim.run_ns_per_instr", med(func(p *passOut) float64 {
			return ratio(p.Self["sim.run"]*1e9, float64(p.Counts.Committed))
		}), "ns", ""},
		{"sim.restore_s", med(self("sim.restore")), "s", "self time"},
		{"core.committed", cnt(func(c *counts) float64 { return float64(c.Committed) }), "count", ""},
		{"core.atomics", cnt(func(c *counts) float64 { return float64(c.Atomics) }), "count", ""},
		{"core.eager_issued", cnt(func(c *counts) float64 { return float64(c.EagerIssued) }), "count", ""},
		{"core.lazy_issued", cnt(func(c *counts) float64 { return float64(c.LazyIssued) }), "count", ""},
		{"core.lq_squashes", cnt(func(c *counts) float64 { return float64(c.LQSquashes) }), "count", ""},
		{"core.ss_violations", cnt(func(c *counts) float64 { return float64(c.SSViolations) }), "count", ""},
		{"core.forced_releases", cnt(func(c *counts) float64 { return float64(c.ForcedReleases) }), "count", ""},
		{"cache.accesses", cnt(func(c *counts) float64 { return float64(c.Accesses) }), "count", ""},
		{"cache.l1_hit_ratio", cnt(func(c *counts) float64 { return ratio(float64(c.L1Hits), float64(c.Accesses)) }), "ratio", ""},
		{"cache.misses", cnt(func(c *counts) float64 { return float64(c.Misses) }), "count", ""},
		{"cache.mshr_full", cnt(func(c *counts) float64 { return float64(c.MSHRFull) }), "count", ""},
		{"cache.ext_stalls", cnt(func(c *counts) float64 { return float64(c.ExtStalls) }), "count", ""},
		{"cache.prefetches", cnt(func(c *counts) float64 { return float64(c.Prefetches) }), "count", ""},
		{"coherence.gets", cnt(func(c *counts) float64 { return float64(c.GetS) }), "count", ""},
		{"coherence.getx", cnt(func(c *counts) float64 { return float64(c.GetX) }), "count", ""},
		{"coherence.stalled", cnt(func(c *counts) float64 { return float64(c.Stalled) }), "count", ""},
		{"coherence.stall_depth_mean", cnt(func(c *counts) float64 { return ratio(c.StallDepthSum, float64(c.StallDepthN)) }), "count", ""},
		{"coherence.l3_misses", cnt(func(c *counts) float64 { return float64(c.L3Misses) }), "count", ""},
		{"coherence.forwards", cnt(func(c *counts) float64 { return float64(c.Forwards) }), "count", ""},
		{"coherence.invalidates", cnt(func(c *counts) float64 { return float64(c.Invalidates) }), "count", ""},
		{"interconnect.messages", cnt(func(c *counts) float64 { return float64(c.Messages) }), "count", ""},
		{"interconnect.avg_hops", cnt(func(c *counts) float64 { return ratio(float64(c.HopsSum), float64(c.Messages)) }), "hops", ""},
		{"predictor.accuracy", cnt(func(c *counts) float64 { return ratio(c.PredCorrectSum, float64(c.Predictions)) }), "ratio", ""},
		{"predictor.predicted_lazy", cnt(func(c *counts) float64 { return float64(c.PredictedLazy) }), "count", ""},
		{"checkpoint.saves", med(layer("checkpoint.saves")), "count", ""},
		{"checkpoint.bytes_per_save", med(layer("checkpoint.bytes_per_save")), "bytes", ""},
		{"checkpoint.save_s", med(self("checkpoint.save")), "s", "self time"},
		{"checkpoint.load_s", med(self("checkpoint.load")), "s", "self time"},
		{"serve.admit_s_p50", med(layer("serve.admit_s_p50")), "s", ""},
		{"serve.memo_sweep_s_p50", med(layer("serve.memo_sweep_s_p50")), "s", ""},
		{"serve.memo_hit_ratio", med(layer("serve.memo_hit_ratio")), "ratio", ""},
		{"serve.retries", med(layer("serve.retries")), "count", ""},
		{"lifecycle.journal_bytes", med(layer("lifecycle.journal_bytes")), "bytes", ""},
		{"trace.wall_s", tracedWall, "s", "traced pass wall time, hop snapshots excluded"},
		{"trace.overhead_s", tracedWall - untracedWall, "s", "traced minus untraced wall_s"},
		{"trace.snapshot_s", med(self("bench.snapshot")), "s", "snapshots taken to read mesh hops (not in any wall time)"},
		{"trace.replay_s", med(func(p *passOut) float64 { return p.ReplayS }), "s", "serve-ckpt: direct replay after the daemon part"},
		{"trace.unattributed_s", unattributed, "s", "traced wall_s plus replay minus the layers' self times"},
	}
}

// fingerprint identifies the host and build a report came from, so
// numbers from different hosts are never compared silently.
func fingerprint(wl string, seed uint64, traced bool) map[string]any {
	return map[string]any{
		"workload":   wl,
		"seed":       seed,
		"traced":     traced,
		"git_rev":    experiments.CodeRev(),
		"src_sha256": sourceDigest(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
}

// sourceDigest hashes the module's Go sources and go.mod (read from
// the working directory, the repository root), so two reports can be
// told apart by code even where there is no git revision to stamp.
func sourceDigest() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "_perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
			return nil
		})
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
