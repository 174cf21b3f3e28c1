// Command rowtorture runs the randomized protocol torture sweep, or
// reproduces a single failing run from its printed seed line.
//
// Sweep mode (the default):
//
//	rowtorture -n 200 -seed 7 -workers 8
//
// runs 200 randomized (seed × workload × variant × fault-config)
// simulations, verifying the coherence invariants during each run and
// replaying a sample for byte-identical determinism. Every failure is
// printed as a one-line re-runnable reproduction.
//
// The sweep runs supervised: -timeout bounds one run's wall-clock
// time, -deadline the whole sweep's, and -journal streams outcomes to
// a crash-safe JSONL log. SIGINT drains in-flight runs into the
// journal; an interrupted (or SIGKILLed) sweep continues with
//
//	rowtorture -resume torture.jsonl
//
// which re-reads the sweep definition from the journal's meta record
// and re-runs only the specs that did not complete successfully.
//
// Reproduction mode (triggered by -wl):
//
//	rowtorture -seed 0x3a41 -wl cq -variant "RW+Dir_Sat" -cores 8 -instrs 2500 -faults "jitter=0.5:16"
//
// re-executes exactly that run under the event loop, then replays it
// under the cycle loop as the sweep does, and prints both outcomes; a
// replay mismatch fails the repro just as it failed the sweep.
//
// Witness-replay mode (triggered by -replay) re-executes a one-line
// counterexample emitted by the rowcheck model checker against the
// real component stack and reports whether the invariant violation
// reproduces:
//
//	rowtorture -replay 'mcheck v1 cores=2 lines=1 banks=1 mode=eager net=fifo bug=getx-as-gets prog=... trace=...'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"rowsim/internal/faults"
	"rowsim/internal/lifecycle"
	"rowsim/internal/mcheck"
	"rowsim/internal/torture"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		n       = flag.Int("n", 100, "sweep: number of randomized configs")
		workers = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		seed    = flag.Uint64("seed", 1, "sweep master seed, or the trace seed in repro mode")
		wl      = flag.String("wl", "", "repro mode: workload name (enables repro mode)")
		variant = flag.String("variant", "Eager", "repro mode: variant name")
		cores   = flag.String("cores", "4,8", "core-count choices (sweep) or the core count (repro)")
		instrs  = flag.String("instrs", "1000,2500", "per-core instruction choices (sweep) or the count (repro)")
		spec    = flag.String("faults", "none", "repro mode: fault spec, e.g. jitter=0.5:16,reorder=0.05:64")
		replay  = flag.Int("replay-every", 5, "replay every Nth run for determinism (0 = off)")
		check   = flag.Uint64("check-every", 4096, "coherence-invariant check interval in cycles (0 = off)")
		budget  = flag.Uint64("max-cycles", 20_000_000, "per-run cycle budget (simulated cycles)")
		journal = flag.String("journal", "", "write a crash-safe JSONL run journal to this path")
		resume  = flag.String("resume", "", "resume an interrupted sweep from its journal")
		timeout = flag.Duration("timeout", 0, "per-run wall-clock deadline (0 = off); timed-out runs retry")
		deadlin = flag.Duration("deadline", 0, "whole-sweep wall-clock deadline (0 = off)")
		retries = flag.Int("retries", 1, "attempt budget per run for transient failures (timeout, panic)")
		verbose = flag.Bool("v", false, "print a line per run")
		witness = flag.String("replay", "", "replay a rowcheck witness spec (mcheck v1 ...)")

		ckptEvery  = flag.Uint64("checkpoint-every", 0, "write a durable per-run checkpoint every N simulated cycles (0 = off); interrupted or retried runs resume from it")
		resumeFrom = flag.String("resume-from", "", "directory holding mid-run checkpoints from a previous invocation (default: derived from the journal path when -checkpoint-every is set)")
	)
	flag.Parse()

	if *witness != "" {
		return replayWitness(*witness)
	}
	if *wl != "" {
		return repro(*seed, *wl, *variant, *cores, *instrs, *spec, *check, *budget)
	}

	// os.Interrupt covers Ctrl-C; SIGTERM is what containers and
	// orchestrators send — both get the same graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadlin > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadlin)
		defer cancel()
	}

	var (
		jnl  *lifecycle.Journal
		snap *lifecycle.Snapshot
		err  error
	)
	switch {
	case *resume != "":
		jnl, snap, err = lifecycle.Resume(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		// Refuse a journal whose meta record no longer hashes to its
		// recorded sweep definition (edited or produced elsewhere).
		if cerr := snap.CheckSpec(*resume); cerr != nil {
			fmt.Fprintln(os.Stderr, cerr)
			return 2
		}
		a := snap.Meta.Args
		*n = atoi(a["n"])
		s, perr := strconv.ParseUint(a["seed"], 10, 64)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "corrupt journal meta: bad seed %q\n", a["seed"])
			return 2
		}
		*seed = s
		*cores, *instrs = a["cores"], a["instrs"]
		*replay = atoi(a["replay-every"])
		*check = uint64(atoi(a["check-every"]))
		*budget = uint64(atoi(a["max-cycles"]))
		// Older journals may carry a "sched" key naming the primary
		// loop; both loops produce identical results, so it is ignored,
		// except that a cycle-loop sweep keyed its runs with a trailing
		// scheduler flag that the current repro lines no longer carry.
		if a["sched"] == "cycle" {
			snap.Runs = rekeyCycleLoopRuns(snap.Runs)
		}
	case *journal != "":
		jnl, err = lifecycle.Create(*journal, lifecycle.Record{
			Tool: "rowtorture",
			Args: map[string]string{
				"n":            strconv.Itoa(*n),
				"seed":         strconv.FormatUint(*seed, 10),
				"cores":        *cores,
				"instrs":       *instrs,
				"replay-every": strconv.Itoa(*replay),
				"check-every":  strconv.FormatUint(*check, 10),
				"max-cycles":   strconv.FormatUint(*budget, 10),
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	// Checkpoints live one file per run spec under a sweep-scoped
	// directory; -resume-from names it explicitly, otherwise it is
	// derived from the journal path so interrupt-then-resume finds the
	// checkpoints without extra flags.
	ckptDir := *resumeFrom
	if ckptDir == "" && *ckptEvery > 0 {
		switch {
		case *resume != "":
			ckptDir = *resume + ".ckpt"
		case *journal != "":
			ckptDir = *journal + ".ckpt"
		default:
			ckptDir = "rowtorture.ckpt"
		}
	}
	if ckptDir != "" {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	opt := torture.Options{
		Runs:            *n,
		Workers:         *workers,
		Seed:            *seed,
		Cores:           parseInts(*cores),
		Instrs:          parseInts(*instrs),
		ReplayEvery:     *replay,
		CheckEvery:      *check,
		MaxCycles:       *budget,
		Ctx:             ctx,
		RunTimeout:      *timeout,
		MaxAttempts:     *retries,
		Journal:         jnl,
		Resume:          snap,
		CheckpointDir:   ckptDir,
		CheckpointEvery: *ckptEvery,
	}
	if *verbose {
		opt.Progress = func(msg string) { fmt.Println(msg) }
	}
	sum := torture.Torture(opt)
	fmt.Println(sum)
	if jerr := closeJournal(jnl); jerr != 0 {
		return jerr
	}
	if !sum.OK() {
		return 1
	}
	if sum.Canceled > 0 {
		hint := ""
		if jnl != nil {
			hint = fmt.Sprintf(" — resume with: rowtorture -resume %s", jnl.Path())
		}
		fmt.Fprintf(os.Stderr, "sweep interrupted%s\n", hint)
		return 130
	}
	return 0
}

// repro re-executes one run and its cycle-loop replay and reports the
// outcome; the exit code is 0 only when both complete cleanly and agree.
func repro(seed uint64, wl, variant, coresStr, instrsStr, spec string, check, budget uint64) int {
	fc, err := faults.ParseSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rs := torture.RunSpec{
		Seed:       seed,
		Workload:   wl,
		Variant:    variant,
		Cores:      one(coresStr),
		Instrs:     one(instrsStr),
		Faults:     fc,
		CheckEvery: check,
		MaxCycles:  budget,
	}
	fmt.Println(rs.ReproLine())
	res, _, err := torture.Reproduce(context.Background(), rs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL [%s]\n%v\n", torture.Classify(err), err)
		return 1
	}
	fmt.Printf("ok: %d cycles, %d committed, IPC %.2f, %d network messages; cycle-loop replay identical\n",
		res.Cycles, res.Committed, res.IPC, res.NetworkMessages)
	return 0
}

// rekeyCycleLoopRuns rekeys the runs of a journal written by a
// cycle-loop sweep to the current repro lines, which end at the quoted
// fault spec. A record already under the current key is newer (written
// by a resume), so it wins.
func rekeyCycleLoopRuns(runs map[string]lifecycle.Record) map[string]lifecycle.Record {
	out := make(map[string]lifecycle.Record, len(runs))
	for k, rec := range runs {
		base := k[:strings.LastIndexByte(k, '"')+1]
		if _, newer := runs[base]; base != k && newer {
			continue
		}
		out[base] = rec
	}
	return out
}

// replayWitness strictly re-executes a rowcheck counterexample. Exit 1
// when the violation reproduces (the expected outcome for a live bug),
// 0 when the trace replays cleanly (the bug is fixed), 2 on a spec that
// no longer applies.
func replayWitness(spec string) int {
	res, err := mcheck.Replay(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if v := res.Violation; v != nil {
		fmt.Printf("reproduced [%s] after %d choices: %s\n", torture.Classify(v), len(v.Trace), v.Detail)
		return 1
	}
	fmt.Printf("ok: witness replayed cleanly (%d choices) — violation not reproduced\n", res.Stats.Transitions)
	return 0
}

func closeJournal(j *lifecycle.Journal) int {
	if j == nil {
		return 0
	}
	if err := j.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "journal error: %v\n", err)
		return 1
	}
	return 0
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad integer list %q: %v\n", s, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func atoi(s string) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corrupt journal meta: bad integer %q\n", s)
		os.Exit(2)
	}
	return v
}

// one parses a single integer flag that shares syntax with a list.
func one(s string) int {
	vs := parseInts(s)
	if len(vs) != 1 {
		fmt.Fprintf(os.Stderr, "repro mode wants a single value, got %q\n", s)
		os.Exit(2)
	}
	return vs[0]
}
