// Command rowsweep sweeps one workload parameter and reports how the
// eager/lazy/RoW comparison responds — the tool behind the kind of
// sensitivity studies Section VI performs on the latency threshold,
// applied to workload characteristics instead.
//
//	rowsweep -workload sps -param sharedfrac -values 0.1,0.3,0.5,0.7,0.9
//	rowsweep -workload pc -param hotlines -values 1,2,4,8,16 -format csv
//	rowsweep -workload cq -param atomics10k -values 10,25,50,100
//
// Every run executes under the lifecycle supervisor: -timeout bounds
// one run's wall-clock time, -deadline the whole sweep's, transient
// failures retry with backoff, and -journal streams each outcome to a
// crash-safe JSONL log. A sweep killed mid-way (SIGINT or SIGKILL)
// resumes from its journal:
//
//	rowsweep ... -journal sweep.jsonl        # interrupted at cell 7/15
//	rowsweep -resume sweep.jsonl             # re-runs only the missing cells
//
// Resume re-reads the sweep definition from the journal's meta record,
// so no other flags are needed; completed runs are served from the
// journal and the final table is identical to an uninterrupted sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"rowsim/internal/checkpoint"
	"rowsim/internal/config"
	"rowsim/internal/experiments"
	"rowsim/internal/lifecycle"
	"rowsim/internal/profiling"
	"rowsim/internal/serve"
	"rowsim/internal/sim"
	"rowsim/internal/stats"
	"rowsim/internal/workload"
)

// policies are the three configurations each sweep cell compares.
var policies = []struct {
	name string
	p    config.AtomicPolicy
}{
	{"eager", config.PolicyEager},
	{"lazy", config.PolicyLazy},
	{"row", config.PolicyRoW},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "sps", "base workload")
		param   = flag.String("param", "sharedfrac", "parameter to sweep: "+strings.Join(serve.ParamNames(), ", "))
		values  = flag.String("values", "0.1,0.5,0.9", "comma-separated sweep values")
		cores   = flag.Int("cores", 32, "number of cores")
		instrs  = flag.Int("instrs", 8000, "instructions per core")
		seed    = flag.Uint64("seed", 1, "trace seed (0 selects the documented default seed)")
		format  = flag.String("format", "text", "output format: text, csv")
		journal = flag.String("journal", "", "write a crash-safe JSONL run journal to this path")
		resume  = flag.String("resume", "", "resume an interrupted sweep from its journal (re-runs only missing cells)")
		timeout = flag.Duration("timeout", 0, "per-run wall-clock deadline (0 = off); timed-out runs retry")
		deadlin = flag.Duration("deadline", 0, "whole-sweep wall-clock deadline (0 = off)")
		retries = flag.Int("retries", 3, "attempt budget per run for transient failures (timeout, panic)")
		jobs    = flag.Int("jobs", 0, "parallel sweep workers (<1 = GOMAXPROCS); aggregate output is identical for any value")

		ckptEvery  = flag.Uint64("checkpoint-every", 0, "write a durable per-cell checkpoint every N simulated cycles (0 = off); interrupted or retried cells resume from it")
		resumeFrom = flag.String("resume-from", "", "directory holding mid-run checkpoints from a previous invocation (default: derived from the journal path when -checkpoint-every is set)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	// Seed 0 means "the default": resolve it here so the journal and
	// every repro record carry the real seed, never the ambiguous 0.
	if *seed == 0 {
		*seed = experiments.DefaultSeed
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
	)
	switch {
	case *resume != "":
		jnl, snap, err = lifecycle.Resume(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		// The meta record carries a hash of the sweep definition; a
		// journal whose meta no longer hashes to it was edited or
		// written by a different definition — resuming it would
		// silently sweep the wrong cells.
		if cerr := snap.CheckSpec(*resume); cerr != nil {
			fmt.Fprintln(os.Stderr, cerr)
			return 2
		}
		// Definition flags passed alongside -resume must agree with the
		// journal (convenience flags like -timeout/-deadline/-retries
		// are not part of the definition and still come from the line).
		a := snap.Meta.Args
		var mismatch error
		flag.Visit(func(f *flag.Flag) {
			want, isDef := a[f.Name]
			if !isDef || mismatch != nil {
				return
			}
			if got := f.Value.String(); got != want {
				mismatch = &lifecycle.SpecMismatchError{Path: *resume, Field: "-" + f.Name, Want: want, Got: got}
			}
		})
		if mismatch != nil {
			fmt.Fprintln(os.Stderr, mismatch)
			return 2
		}
		*name, *param, *values = a["workload"], a["param"], a["values"]
		*cores = atoi(a["cores"])
		*instrs = atoi(a["instrs"])
		// Older journals may carry a "sched" key naming the simulation
		// loop; both loops produce identical results, so it is ignored.
		s, perr := strconv.ParseUint(a["seed"], 10, 64)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "corrupt journal meta: bad seed %q\n", a["seed"])
			return 2
		}
		*seed = s
	case *journal != "":
		jnl, err = lifecycle.Create(*journal, lifecycle.Record{
			Tool: "rowsweep",
			Args: map[string]string{
				"workload": *name,
				"param":    *param,
				"values":   *values,
				"cores":    strconv.Itoa(*cores),
				"instrs":   strconv.Itoa(*instrs),
				"seed":     strconv.FormatUint(*seed, 10),
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	// Checkpoints live in one directory per sweep, one file per cell
	// (named by the cell's content key, so a resume matches them without
	// any manifest). -resume-from names it explicitly; otherwise it is
	// derived from the journal path so interrupt-then-resume finds the
	// checkpoints with no extra flags.
	ckptDir := *resumeFrom
	if ckptDir == "" && *ckptEvery > 0 {
		switch {
		case *resume != "":
			ckptDir = *resume + ".ckpt"
		case *journal != "":
			ckptDir = *journal + ".ckpt"
		default:
			ckptDir = "rowsweep.ckpt"
		}
	}
	if ckptDir != "" {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	// The parameter set is shared with rowserve (internal/serve): one
	// definition of "what can be swept" across the CLI and the daemon.
	apply, ok := serve.Params[*param]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown parameter %q (known: %s)\n", *param, strings.Join(serve.ParamNames(), ", "))
		return 2
	}
	base, err := workload.Get(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	sup := lifecycle.New(lifecycle.Config{
		MaxAttempts: *retries,
		RunTimeout:  *timeout,
		JitterSeed:  *seed,
		Journal:     jnl,
	})

	// outcomes collects one supervised outcome per (value, policy) cell.
	// Cells are independent deterministic simulations, so they fan out
	// across a worker pool; the journal records outcomes in completion
	// order, but the aggregate table below is built from this map in
	// sweep order and is byte-identical for any worker count.
	outcomes := make(map[string]lifecycle.Outcome)
	canceled := false
	rawValues := strings.Split(*values, ",")
	type cellSpec struct {
		key  string
		wp   workload.Params
		pcfg config.AtomicPolicy
	}
	var cells []cellSpec
	for _, raw := range rawValues {
		v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad value %q: %v\n", raw, err)
			return 2
		}
		p := base
		apply(&p, v)
		for _, pol := range policies {
			key := fmt.Sprintf("%s=%s/%s", *param, strings.TrimSpace(raw), pol.name)
			if rec, ok := snap.Completed(key); ok {
				outcomes[key] = rec.Outcome()
				fmt.Fprintf(os.Stderr, "%-30s resumed from journal\n", key)
				continue
			}
			cells = append(cells, cellSpec{key: key, wp: p, pcfg: pol.p})
		}
	}
	var mu sync.Mutex
	experiments.ForEach(experiments.Jobs(*jobs), len(cells), func(i int) {
		c := cells[i]
		if ctx.Err() != nil {
			mu.Lock()
			canceled = true
			mu.Unlock()
			return
		}
		// The checkpoint content key covers everything that determines
		// the run — config (policy included), workload parameters,
		// shape, seed and code revision — so a stale or foreign
		// checkpoint can never be resumed into this cell.
		var cpath, ckey string
		if ckptDir != "" {
			ckey = experiments.ContentKey("rowsweep-cell", cellCfg(c.pcfg, *cores), c.wp, *instrs, *seed)
			cpath = filepath.Join(ckptDir, ckey[:16]+".ckpt")
		}
		out := sup.Do(ctx, lifecycle.Job{Key: c.key, Seed: *seed, Checkpoint: cpath}, func(runCtx context.Context) (sim.Result, error) {
			progs := workload.Generate(c.wp, *cores, *instrs, *seed)
			cfg := cellCfg(c.pcfg, *cores)
			opts := []sim.Option{sim.WithWarmFilter(workload.WarmFilter(c.wp))}
			if cpath != "" && *ckptEvery > 0 {
				opts = append(opts, sim.WithCheckpoint(*ckptEvery, checkpoint.Saver(cpath, ckey)))
			}
			s, err := sim.New(cfg, progs, opts...)
			if err != nil {
				return sim.Result{}, err
			}
			if cpath != "" {
				cyc, resumed, warn, err := checkpoint.ResumeLenient(s, cpath, ckey)
				if err != nil {
					return sim.Result{}, err
				}
				if warn != nil {
					fmt.Fprintf(os.Stderr, "%-30s checkpoint unusable, starting fresh: %v\n", c.key, warn)
				}
				if resumed {
					fmt.Fprintf(os.Stderr, "%-30s resumed from checkpoint at cycle %d\n", c.key, cyc)
				}
			}
			return s.RunCtx(runCtx)
		})
		if cpath != "" && out.Status.Terminal() {
			// The cell is done (ok, or deterministically failed): its
			// recovery state has no future use. Canceled cells keep
			// theirs for the next invocation.
			checkpoint.Remove(cpath)
		}
		mu.Lock()
		outcomes[c.key] = out
		switch out.Status {
		case lifecycle.StatusCanceled:
			canceled = true
		case lifecycle.StatusOK:
			fmt.Fprintf(os.Stderr, "%-30s ok (%d attempt(s))\n", c.key, out.Attempts)
		default:
			// Degrade gracefully: record and keep sweeping.
			fmt.Fprintf(os.Stderr, "%-30s %s after %d attempt(s): %v\n", c.key, out.Status, out.Attempts, out.Err)
		}
		mu.Unlock()
	})

	if canceled {
		hint := ""
		if jnl != nil {
			hint = fmt.Sprintf(" — resume with: rowsweep -resume %s", jnl.Path())
		}
		fmt.Fprintf(os.Stderr, "sweep interrupted%s\n", hint)
		closeJournal(jnl)
		return 130
	}

	t := &stats.Table{
		Title:   fmt.Sprintf("Sweep of %s over %s", *param, base.Name),
		Headers: []string{*param, "eager-cycles", "lazy/eager", "row(Sat)/eager", "%contended"},
	}
	for _, raw := range rawValues {
		raw = strings.TrimSpace(raw)
		cell := func(pol string) lifecycle.Outcome {
			return outcomes[fmt.Sprintf("%s=%s/%s", *param, raw, pol)]
		}
		eager, lazy, row := cell("eager"), cell("lazy"), cell("row")
		if eager.Status == lifecycle.StatusOK && lazy.Status == lifecycle.StatusOK && row.Status == lifecycle.StatusOK {
			t.AddRow(raw,
				fmt.Sprint(eager.Result.Cycles),
				stats.F(float64(lazy.Result.Cycles)/float64(eager.Result.Cycles)),
				stats.F(float64(row.Result.Cycles)/float64(eager.Result.Cycles)),
				stats.Pct(eager.Result.ContendedFrac))
			continue
		}
		// A degraded cell keeps its row (with the failure mode) instead
		// of aborting the sweep.
		status := func(o lifecycle.Outcome) string {
			if o.Status == lifecycle.StatusOK {
				return "ok"
			}
			return string(o.Status)
		}
		t.AddRow(raw, status(eager), status(lazy), status(row), "—")
	}
	if *format == "csv" {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t)
	}
	return closeJournal(jnl)
}

// closeJournal closes the journal and reports any write failure (a
// journal problem must be loud: a silent one makes resume lie).
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

// cellCfg builds one sweep cell's simulator configuration. Shared by
// the run itself and the checkpoint content key, so the key always
// hashes exactly the configuration that executes.
func cellCfg(pol config.AtomicPolicy, cores int) *config.Config {
	cfg := config.Default()
	cfg.NumCores = cores
	cfg.Policy = pol
	cfg.RoW.Predictor = config.PredSaturate
	cfg.EarlyAddrCalc = pol == config.PolicyRoW
	cfg.MaxCycles = 500_000_000
	return cfg
}

func atoi(s string) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corrupt journal meta: bad integer %q\n", s)
		os.Exit(2)
	}
	return v
}
