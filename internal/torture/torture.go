// Package torture is the randomized protocol torture harness: it runs
// many (seed × workload × variant × fault-config) simulations across
// worker goroutines, checks the coherence invariants during each run,
// replays a sample of runs to verify deterministic reproduction, and
// reports every failure as a one-line re-runnable command. It is the
// regression safety net every perf or protocol change runs against.
package torture

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"rowsim/internal/checkpoint"
	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/experiments"
	"rowsim/internal/faults"
	"rowsim/internal/lifecycle"
	"rowsim/internal/mcheck"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
	"rowsim/internal/xrand"
)

// Variants eligible for the sweep, by the names printed in repro
// lines. Kept in a fixed order so seed-driven choices are stable.
var variants = []experiments.Variant{
	experiments.VarEager,
	experiments.VarLazy,
	experiments.VarDirUD,
	experiments.VarDirSat,
	experiments.VarDirSatFwd,
	{Name: "Far", Policy: config.PolicyFar, Threshold: -1},
}

// VariantNames returns the sweep's variant names, in order.
func VariantNames() []string {
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.Name
	}
	return names
}

// LookupVariant resolves a repro line's variant name.
func LookupVariant(name string) (experiments.Variant, error) {
	for _, v := range variants {
		if v.Name == name {
			return v, nil
		}
	}
	return experiments.Variant{}, fmt.Errorf("torture: unknown variant %q (known: %v)", name, VariantNames())
}

// defaultWorkloads are the sweep's trace generators: the contended
// workloads that stress the protocol hardest, plus the lock/barrier
// kernels whose cache-locking traffic drives the Fig. 8 race.
var defaultWorkloads = []string{
	"cq", "sps", "pc", "tatp", "tpcc", "barnes",
	"raytrace", "streamcluster", "tas", "ticket", "barrier",
}

// faultLevels are the legal fault mixes the sweep draws from
// (weighted by repetition). Illegal modes (dup/drop) never enter the
// sweep: they exist to exercise failure detection, not to pass.
var faultLevels = []faults.Config{
	{}, // no faults: the pure-timing baseline must always pass
	{JitterProb: 0.1, JitterMax: 8},
	{JitterProb: 0.5, JitterMax: 16},
	{JitterProb: 0.25, JitterMax: 12, ReorderProb: 0.05, ReorderMax: 64},
	{ReorderProb: 0.15, ReorderMax: 128},
}

// Options scales a torture sweep. The zero value is a sensible default
// sweep of 100 runs.
type Options struct {
	Runs    int // number of randomized configs (default 100)
	Workers int // concurrent simulations (default GOMAXPROCS)
	Seed    uint64

	Cores     []int    // core-count choices (default {4, 8})
	Instrs    []int    // per-core instruction-count choices (default {1000, 2500})
	Workloads []string // default: the contended set above

	// ReplayEvery re-runs every Nth config under the cycle loop (see
	// ReplayCheck) and requires an identical normalized sim.Result —
	// both the determinism that makes repro lines trustworthy and the
	// proof that the event loop agrees with the cycle loop across the
	// whole sweep matrix, fault injection included. 0 disables replay;
	// default every 5th run.
	ReplayEvery int

	CheckEvery uint64 // coherence-invariant interval (default 4096)
	MaxCycles  uint64 // per-run cycle budget (default 20M)

	// Ctx cancels the sweep (nil = context.Background()): no new runs
	// start once it is done, in-flight simulations stop at the next
	// 1024-cycle poll and are journaled canceled, so a SIGINT drains
	// into a resumable checkpoint. A deadline on the context bounds
	// the whole sweep's wall-clock time.
	Ctx context.Context
	// RunTimeout is the per-run wall-clock deadline, distinct from the
	// simulated MaxCycles budget (0 = none). A timed-out run counts as
	// transient and is retried.
	RunTimeout time.Duration
	// MaxAttempts is the per-run attempt budget for transient failures
	// (timeout, panic); deterministic failures never retry. Default 1:
	// a torture sweep reports what it saw unless retries are asked for.
	MaxAttempts int
	// Journal, when set, records every run outcome (crash-safe JSONL).
	Journal *lifecycle.Journal
	// Resume, when set, skips specs the journaled sweep already
	// completed successfully; failures and canceled runs re-execute.
	Resume *lifecycle.Snapshot

	// CheckpointDir, when set, gives every run a durable mid-run
	// checkpoint lineage under this directory (one file per spec,
	// named by its content key). Runs resume from an existing valid
	// checkpoint — whether left by a killed process or by a failed
	// attempt the supervisor is retrying — and checkpoints of runs
	// that reach a terminal state are removed. CheckpointEvery is the
	// simulated-cycle cadence (0 leaves checkpoint writing off while
	// still resuming from existing files).
	CheckpointDir   string
	CheckpointEvery uint64

	// Progress, when set, receives a line per completed run. Called
	// from worker goroutines; must be safe for concurrent use.
	Progress func(msg string)
}

func (o Options) withDefaults() Options {
	if o.Runs == 0 {
		o.Runs = 100
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Cores) == 0 {
		o.Cores = []int{4, 8}
	}
	if len(o.Instrs) == 0 {
		o.Instrs = []int{1000, 2500}
	}
	if len(o.Workloads) == 0 {
		o.Workloads = defaultWorkloads
	}
	if o.ReplayEvery == 0 {
		o.ReplayEvery = 5
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 4096
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 20_000_000
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 1
	}
	return o
}

// RunSpec fully determines one torture run; its ReproLine re-runs it.
type RunSpec struct {
	Seed     uint64 // workload-trace seed
	Workload string
	Variant  string
	Cores    int
	Instrs   int
	Faults   faults.Config

	CheckEvery uint64
	MaxCycles  uint64
}

// ReproLine renders the one-line reproduction command. Running it
// repeats the sweep's judgement of the spec (see Reproduce), replay
// included, so every FAIL line — a replay mismatch too — reproduces.
func (s RunSpec) ReproLine() string {
	return fmt.Sprintf("rowtorture -seed %#x -wl %s -variant %q -cores %d -instrs %d -faults %q",
		s.Seed, s.Workload, s.Variant, s.Cores, s.Instrs, s.Faults.Spec())
}

// ContentKey hashes everything that determines the run — the spec
// (workload, variant, shape, seed, fault mix, budgets) plus the code
// revision — for use as a checkpoint validity key.
func (s RunSpec) ContentKey() string {
	return experiments.ContentKey("torture-run", s)
}

// Execute performs one run of the spec and returns its result. All
// failure modes come back as errors: protocol violations
// (*coherence.ProtocolError), deadlocks (*sim.DeadlockError), budget
// exhaustion (*sim.CycleLimitError) and invariant breaks
// (*sim.CoherenceViolationError).
func Execute(spec RunSpec) (sim.Result, error) {
	return ExecuteCtx(context.Background(), spec)
}

// ExecuteCtx is Execute under cooperative cancellation: the run also
// aborts with *sim.RunCanceledError when ctx ends.
func ExecuteCtx(ctx context.Context, spec RunSpec) (sim.Result, error) {
	return ExecuteCheckpointed(ctx, spec, 0, "")
}

// ExecuteCheckpointed is ExecuteCtx with a durable checkpoint lineage
// at path: the run resumes from an existing valid checkpoint (fresh
// start when none, or when both slots are corrupt — bounded loss) and,
// when every > 0, persists a new checkpoint each cadence. A checkpoint
// whose content key does not match the spec fails the run with
// *checkpoint.MismatchError rather than resuming foreign state.
func ExecuteCheckpointed(ctx context.Context, spec RunSpec, every uint64, path string) (sim.Result, error) {
	return execute(ctx, spec, every, path)
}

// execute is ExecuteCheckpointed with extra construction options
// (the cycle loop, for replays).
func execute(ctx context.Context, spec RunSpec, every uint64, path string, extra ...sim.Option) (sim.Result, error) {
	v, err := LookupVariant(spec.Variant)
	if err != nil {
		return sim.Result{}, err
	}
	p, err := workload.Get(spec.Workload)
	if err != nil {
		return sim.Result{}, err
	}
	progs := workload.Generate(p, spec.Cores, spec.Instrs, spec.Seed)
	cfg := v.Config(spec.Cores)
	if spec.MaxCycles > 0 {
		cfg.MaxCycles = spec.MaxCycles
	}
	// Torture runs double as the idle-skip cross-checker: every skip
	// decision the scheduler makes is replayed and asserted a no-op.
	opts := append([]sim.Option{sim.WithWarmFilter(workload.WarmFilter(p)), sim.WithCrossCheck()}, extra...)
	if spec.CheckEvery > 0 {
		opts = append(opts, sim.WithInvariantChecks(spec.CheckEvery))
	}
	if spec.Faults.Enabled() {
		opts = append(opts, sim.WithFaults(spec.Faults))
	}
	var key string
	if path != "" {
		key = spec.ContentKey()
		if every > 0 {
			opts = append(opts, sim.WithCheckpoint(every, checkpoint.Saver(path, key)))
		}
	}
	s, err := sim.New(cfg, progs, opts...)
	if err != nil {
		return sim.Result{}, err
	}
	if path != "" {
		if _, _, warn, err := checkpoint.ResumeLenient(s, path, key); err != nil {
			return sim.Result{}, err
		} else if warn != nil {
			fmt.Fprintf(os.Stderr, "torture: %s: checkpoint unusable, starting fresh: %v\n", spec.ReproLine(), warn)
		}
	}
	return s.RunCtx(ctx)
}

// ReplayMismatchError reports nondeterminism: the same spec produced
// a different outcome when re-executed.
type ReplayMismatchError struct{ Detail string }

func (e *ReplayMismatchError) Error() string {
	return "replay mismatch (nondeterministic run): " + e.Detail
}

// ReplayCheck re-executes spec under the cycle loop and compares the
// replay with primary, the passing event-loop result of the same spec.
// A pass proves both determinism and loop equivalence on this spec
// (fault mix included); results are compared normalized, as the
// visited-cycle count is the one field allowed to differ. A failed or
// different replay returns *ReplayMismatchError; a canceled one
// returns its cancellation error unwrapped, since the run itself is
// fine and only the check did not finish.
func ReplayCheck(ctx context.Context, spec RunSpec, primary sim.Result) (sim.Result, error) {
	res, err := execute(ctx, spec, 0, "", sim.WithCycleLoop())
	switch {
	case err != nil && lifecycle.Classify(err) == lifecycle.ClassCanceled:
		return res, err
	case err != nil:
		return res, &ReplayMismatchError{Detail: fmt.Sprintf("cycle-loop replay failed where the event-loop run passed: %v", err)}
	case res.SchedNormalized() != primary.SchedNormalized():
		return res, &ReplayMismatchError{Detail: fmt.Sprintf("event-loop run %d cycles / %d messages, cycle-loop replay %d cycles / %d messages",
			primary.Cycles, primary.NetworkMessages, res.Cycles, res.NetworkMessages)}
	}
	return res, nil
}

// Reproduce re-runs spec as the sweep judges a replayed run: the event
// loop, then, when that passes, ReplayCheck under the cycle loop. It
// returns both results; the error is the first failure of either.
func Reproduce(ctx context.Context, spec RunSpec) (primary, replay sim.Result, err error) {
	primary, err = ExecuteCtx(ctx, spec)
	if err != nil {
		return primary, sim.Result{}, err
	}
	replay, err = ReplayCheck(ctx, spec, primary)
	return primary, replay, err
}

// Failure is one failed run, classified for the summary.
type Failure struct {
	Index int // run index within the sweep
	Spec  RunSpec
	Err   error
	Kind  string // protocol | deadlock | cycle-limit | coherence | msg-leak | replay-mismatch | mcheck-invariant | panic | timeout | setup
}

// Classify names the failure mode of a run error.
func Classify(err error) string {
	var pe *coherence.ProtocolError
	var de *sim.DeadlockError
	var ce *sim.CycleLimitError
	var ve *sim.CoherenceViolationError
	var le *sim.MsgLeakError
	var re *ReplayMismatchError
	var rp *lifecycle.RunPanicError
	var me *mcheck.InvariantError
	switch {
	case errors.As(err, &re):
		return "replay-mismatch"
	case errors.As(err, &me):
		return "mcheck-invariant"
	case errors.As(err, &pe):
		return "protocol"
	case errors.As(err, &de):
		return "deadlock"
	case errors.As(err, &ce):
		return "cycle-limit"
	case errors.As(err, &ve):
		return "coherence"
	case errors.As(err, &le):
		return "msg-leak"
	case errors.As(err, &rp):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "setup"
	}
}

// Summary aggregates a sweep.
type Summary struct {
	Runs     int
	Replayed int
	// Skipped counts specs served from a resumed journal (already
	// completed successfully in the interrupted sweep).
	Skipped int
	// Canceled counts specs the sweep did not finish before its
	// context ended; a resume re-runs exactly these.
	Canceled int
	Failures []Failure
	ByKind   map[string]int
}

// OK reports a clean sweep: no failures. An interrupted sweep can be
// OK so far — check Canceled to know whether it is also complete.
func (s Summary) OK() bool { return len(s.Failures) == 0 }

// String renders the human summary, failures first.
func (s Summary) String() string {
	out := ""
	for _, f := range s.Failures {
		out += fmt.Sprintf("FAIL [%s] %s\n  %v\n", f.Kind, f.Spec.ReproLine(), f.Err)
	}
	out += fmt.Sprintf("torture: %d runs, %d replayed, %d failures", s.Runs, s.Replayed, len(s.Failures))
	if s.Skipped > 0 {
		out += fmt.Sprintf(", %d resumed from journal", s.Skipped)
	}
	if s.Canceled > 0 {
		out += fmt.Sprintf(", %d canceled (resumable)", s.Canceled)
	}
	if len(s.ByKind) > 0 {
		kinds := make([]string, 0, len(s.ByKind))
		for k := range s.ByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			out += fmt.Sprintf(" %s=%d", k, s.ByKind[k])
		}
	}
	return out
}

// specs derives the sweep's run specs from the master seed. Purely
// sequential and deterministic: the same (seed, options) always
// produce the same sweep.
func specs(opt Options) []RunSpec {
	rng := xrand.New(opt.Seed)
	out := make([]RunSpec, opt.Runs)
	for i := range out {
		fl := faultLevels[rng.Intn(len(faultLevels))]
		fl.Seed = rng.Uint64()
		out[i] = RunSpec{
			Seed:       rng.Uint64() | 1, // workload.Generate treats seed 0 as unset in places
			Workload:   opt.Workloads[rng.Intn(len(opt.Workloads))],
			Variant:    variants[rng.Intn(len(variants))].Name,
			Cores:      opt.Cores[rng.Intn(len(opt.Cores))],
			Instrs:     opt.Instrs[rng.Intn(len(opt.Instrs))],
			Faults:     fl,
			CheckEvery: opt.CheckEvery,
			MaxCycles:  opt.MaxCycles,
		}
	}
	return out
}

// Torture runs the sweep under the lifecycle supervisor and returns
// the summary. Every run gets panic containment, the per-run timeout
// and classified retry from the options; outcomes stream to the
// journal when one is set, and a resume snapshot short-circuits specs
// the journaled sweep already completed.
func Torture(opt Options) Summary {
	opt = opt.withDefaults()
	all := specs(opt)
	ctx := opt.Ctx

	sup := lifecycle.New(lifecycle.Config{
		MaxAttempts: opt.MaxAttempts,
		RunTimeout:  opt.RunTimeout,
		JitterSeed:  opt.Seed,
		Journal:     opt.Journal,
	})

	type outcome struct {
		status   lifecycle.Status
		err      error
		replayed bool
		skipped  bool
	}
	outcomes := make([]outcome, len(all))

	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				spec := all[i]
				key := spec.ReproLine()
				if _, ok := opt.Resume.Completed(key); ok {
					outcomes[i] = outcome{status: lifecycle.StatusOK, skipped: true}
					if opt.Progress != nil {
						opt.Progress(fmt.Sprintf("run %4d %-4s %-13s %-14s cores=%d (resumed from journal)",
							i, "skip", spec.Workload, spec.Variant, spec.Cores))
					}
					continue
				}
				var cpath string
				if opt.CheckpointDir != "" {
					cpath = filepath.Join(opt.CheckpointDir, spec.ContentKey()[:16]+".ckpt")
				}
				out := sup.Do(ctx, lifecycle.Job{Key: key, Seed: spec.Seed, Checkpoint: cpath}, func(c context.Context) (sim.Result, error) {
					return ExecuteCheckpointed(c, spec, opt.CheckpointEvery, cpath)
				})
				err := out.Err
				replayed := false
				if out.Status == lifecycle.StatusOK && opt.ReplayEvery > 0 && i%opt.ReplayEvery == 0 {
					replayed = true
					if _, rerr := ReplayCheck(ctx, spec, out.Result); rerr != nil {
						if lifecycle.Classify(rerr) == lifecycle.ClassCanceled {
							// The sweep was interrupted mid-replay: the run
							// is fine, the check just did not finish.
							replayed = false
						} else {
							err = rerr
						}
					}
					if err != nil {
						// Override the journaled ok: the latest record per
						// key wins on resume, so the mismatch re-runs.
						out.Status = lifecycle.StatusFailed
						if opt.Journal != nil {
							opt.Journal.Append(lifecycle.Record{
								Kind: "run", Key: key, Seed: spec.Seed,
								Status: lifecycle.StatusFailed, Attempts: out.Attempts,
								Class: "replay-mismatch", Error: err.Error(),
							})
						}
					}
				}
				if cpath != "" && out.Status.Terminal() {
					// Done (ok or deterministically failed): the recovery
					// state has no future use. Canceled runs keep theirs
					// for the resumed sweep.
					checkpoint.Remove(cpath)
				}
				outcomes[i] = outcome{status: out.Status, err: err, replayed: replayed}
				if opt.Progress != nil {
					status := "ok"
					if out.Status != lifecycle.StatusOK {
						status = strings.ToUpper(string(out.Status))
					} else if err != nil {
						status = "FAIL"
					}
					opt.Progress(fmt.Sprintf("run %4d %-4s %-13s %-14s cores=%d faults=%s attempts=%d",
						i, status, spec.Workload, spec.Variant, spec.Cores, spec.Faults.Spec(), out.Attempts))
				}
			}
		}()
	}
feed:
	for i := range all {
		select {
		case work <- i:
		case <-ctx.Done():
			// SIGINT / sweep deadline: stop dispatching; in-flight runs
			// drain (their simulations stop at the next cancellation
			// poll and are journaled canceled).
			for j := i; j < len(all); j++ {
				outcomes[j].status = lifecycle.StatusCanceled
			}
			break feed
		}
	}
	close(work)
	wg.Wait()

	sum := Summary{Runs: len(all), ByKind: make(map[string]int)}
	for i, o := range outcomes {
		if o.replayed {
			sum.Replayed++
		}
		if o.skipped {
			sum.Skipped++
		}
		if o.status == lifecycle.StatusCanceled {
			sum.Canceled++
			continue
		}
		if o.err == nil {
			continue
		}
		kind := Classify(o.err)
		sum.ByKind[kind]++
		sum.Failures = append(sum.Failures, Failure{Index: i, Spec: all[i], Err: o.err, Kind: kind})
	}
	sort.Slice(sum.Failures, func(a, b int) bool { return sum.Failures[a].Index < sum.Failures[b].Index })
	return sum
}
