package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"rowsim/internal/bench"
	"rowsim/internal/experiments"
	"rowsim/internal/stats"
)

// benchSuite is the figure benchmark set the regression gate measures:
// the same figures bench_test.go exercises, at the same laptop scale
// (8 cores, short traces, one contended and one non-contended
// workload), so a JSON report takes seconds, not the minutes of a
// full-scale regeneration.
var benchSuite = []struct {
	name string
	run  func(r *experiments.Runner) *stats.Table
}{
	{"Fig1EagerVsLazy", experiments.Fig1},
	{"Fig4IndependentInstrs", experiments.Fig4},
	{"Fig5AtomicIntensity", experiments.Fig5},
	{"Fig6LatencyBreakdown", experiments.Fig6},
	{"Fig9RoWVariants", experiments.Fig9},
	{"Fig10ThresholdSweep", experiments.Fig10},
	{"Fig11MissLatency", experiments.Fig11},
	{"Fig12PredictorAccuracy", experiments.Fig12},
	{"Fig13Forwarding", experiments.Fig13},
}

// benchSuiteOptions mirrors bench_test.go's benchOptions.
func benchSuiteOptions() experiments.Options {
	return experiments.Options{
		Cores:     8,
		Instrs:    3000,
		Seed:      1,
		Workloads: []string{"canneal", "sps"},
	}
}

// benchReps is how many times each figure is measured; the report
// keeps the fastest repetition. Wall time on a shared host is
// one-sided noise (scheduling and page-cache stalls only ever add
// time), so min-of-N is the stable estimator — single-shot numbers
// jitter enough to trip a 25% gate on their own.
const benchReps = 3

// runBenchSuite measures every suite figure on a fresh memo (wall
// time, simulated-cycle throughput, allocations), writes the JSON
// report, and — when a baseline is given — fails on wall-time
// regressions beyond maxRegress.
func runBenchSuite(outPath, basePath string, maxRegress float64, jobs int, quiet bool) int {
	rep := bench.New(gitRev(), experiments.Jobs(jobs))
	for _, fb := range benchSuite {
		var e bench.Entry
		for i := 0; i < benchReps; i++ {
			// A fresh runner per repetition keeps the memo cold: each
			// measurement is the figure's full simulation cost, not
			// whatever a previous pass happened to share.
			r := experiments.NewRunner(benchSuiteOptions())
			r.SetJobs(jobs)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			fb.run(r)
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			if i > 0 && wall.Nanoseconds() >= e.WallNS {
				continue
			}
			cycles := r.SimulatedCycles()
			visited := r.VisitedCycles()
			e = bench.Entry{
				Name:          fb.name,
				WallNS:        wall.Nanoseconds(),
				Cycles:        cycles,
				CyclesVisited: visited,
				Allocs:        after.Mallocs - before.Mallocs,
				Bytes:         after.TotalAlloc - before.TotalAlloc,
			}
			if sec := wall.Seconds(); sec > 0 {
				e.CyclesPerSec = float64(cycles) / sec
			}
			if cycles > 0 {
				e.SkipEff = 1 - float64(visited)/float64(cycles)
			}
		}
		rep.Entries = append(rep.Entries, e)
		if !quiet {
			fmt.Fprintf(os.Stderr, "%-24s %10.1fms %12.0f cycles/s %5.1f%% skipped %10d allocs\n",
				fb.name, float64(e.WallNS)/1e6, e.CyclesPerSec, e.SkipEff*100, e.Allocs)
		}
	}
	if err := bench.Write(outPath, rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "wrote %s (rev %s, jobs %d)\n", outPath, rep.Rev, rep.Jobs)
	}
	if basePath == "" {
		return 0
	}
	base, err := bench.Read(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	msgs, ok := bench.Compare(base, rep, maxRegress)
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, m)
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark gate FAILED against %s\n", basePath)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchmark gate passed against %s\n", basePath)
	return 0
}

// gitRev tags the report with the current short revision; outside a
// git checkout the tag degrades to "unknown".
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
