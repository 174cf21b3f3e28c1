// Package experiments regenerates every table and figure of the
// paper's evaluation: the eager/lazy trade-off (Fig. 1), the fence
// microbenchmark (Fig. 2), the motivation statistics (Figs. 4-6), the
// RoW variant comparison (Fig. 9), the threshold sweep (Fig. 10), the
// miss-latency and accuracy analyses (Figs. 11-12), the forwarding
// study (Fig. 13) and the headline summary, plus the ablations the
// design discussion calls out (predictor size and update rule).
package experiments

import (
	"context"
	"fmt"
	"sync"

	"rowsim/internal/config"
	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

// DefaultSeed is the trace seed selected when Options.Seed is zero.
// Seed 0 is reserved as "use the default" — workload generation mixes
// seeds in ways that treat 0 as unset, so it is not a valid distinct
// seed of its own. Every run record journals the resolved seed, never
// the ambiguous 0, so a journaled spec is always re-runnable verbatim.
const DefaultSeed uint64 = 1

// Options scales the experiments. The zero value picks the paper's
// 32-core system at a trace length that keeps a full figure run in
// minutes.
type Options struct {
	Cores  int
	Instrs int // per-core instructions; 0 = 12000
	// Seed is the trace seed; 0 explicitly selects DefaultSeed (it is
	// NOT a distinct seed — passing 0 and 1 runs identical sweeps by
	// design, and the resolved value is what gets journaled).
	Seed      uint64
	Workloads []string // default: the 13 atomic-intensive workloads
}

func (o Options) withDefaults() Options {
	if o.Cores == 0 {
		o.Cores = 32
	}
	if o.Instrs == 0 {
		o.Instrs = 12000
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.Workloads == nil {
		o.Workloads = workload.AtomicIntensive
	}
	return o
}

// Variant identifies one simulated configuration.
type Variant struct {
	Name      string
	Policy    config.AtomicPolicy
	Detection config.Detection
	Predictor config.PredictorKind
	Forward   bool
	// Threshold overrides the RW+Dir latency threshold; -1 keeps the
	// default 400, -2 means "infinite" (disables the Dir detector).
	Threshold int
	// PredEntries overrides the predictor table size (0 = 64).
	PredEntries int
	// AQSize overrides the Atomic Queue depth (0 = 16).
	AQSize int
}

// Baselines and the RoW variants the figures compare.
var (
	VarEager = Variant{Name: "Eager", Policy: config.PolicyEager, Threshold: -1}
	VarLazy  = Variant{Name: "Lazy", Policy: config.PolicyLazy, Threshold: -1}

	VarEagerFwd = Variant{Name: "Eager+Fwd", Policy: config.PolicyEager, Forward: true, Threshold: -1}

	VarEWUD   = rowVariant("EW_U/D", config.DetectEW, config.PredUpDown, false)
	VarEWSat  = rowVariant("EW_Sat", config.DetectEW, config.PredSaturate, false)
	VarRWUD   = rowVariant("RW_U/D", config.DetectRW, config.PredUpDown, false)
	VarRWSat  = rowVariant("RW_Sat", config.DetectRW, config.PredSaturate, false)
	VarDirUD  = rowVariant("RW+Dir_U/D", config.DetectRWDir, config.PredUpDown, false)
	VarDirSat = rowVariant("RW+Dir_Sat", config.DetectRWDir, config.PredSaturate, false)

	VarDirUDFwd  = rowVariant("RW+Dir_U/D+Fwd", config.DetectRWDir, config.PredUpDown, true)
	VarDirSatFwd = rowVariant("RW+Dir_Sat+Fwd", config.DetectRWDir, config.PredSaturate, true)
)

func rowVariant(name string, d config.Detection, p config.PredictorKind, fwd bool) Variant {
	return Variant{Name: name, Policy: config.PolicyRoW, Detection: d, Predictor: p, Forward: fwd, Threshold: -1}
}

// Config materializes the variant into a full system configuration.
func (v Variant) Config(cores int) *config.Config {
	cfg := config.Default()
	cfg.NumCores = cores
	cfg.Policy = v.Policy
	cfg.ForwardAtomics = v.Forward
	cfg.RoW.Detection = v.Detection
	cfg.RoW.Predictor = v.Predictor
	// The ready window requires the early address-calculation pass;
	// EW and the plain baselines do without it (Section IV-B).
	cfg.EarlyAddrCalc = v.Policy == config.PolicyRoW && v.Detection != config.DetectEW
	switch v.Threshold {
	case -1:
		// keep the default (400)
	case -2:
		cfg.RoW.LatencyThreshold = -1 // infinite
	default:
		cfg.RoW.LatencyThreshold = v.Threshold
	}
	if v.PredEntries > 0 {
		cfg.RoW.PredictorEntries = v.PredEntries
	}
	if v.AQSize > 0 {
		cfg.Core.AQSize = v.AQSize
	}
	cfg.MaxCycles = 500_000_000
	return cfg
}

func (v Variant) key() string {
	return fmt.Sprintf("%s|%d|%d|%d|%v|%d|%d|%d",
		v.Name, v.Policy, v.Detection, v.Predictor, v.Forward, v.Threshold, v.PredEntries, v.AQSize)
}

// Runner executes and memoizes simulation runs: several figures share
// the same eager/lazy/RoW runs. It is safe for concurrent use: the
// memo map is mutex-protected, so the torture harness and parallel
// figure runs can share one runner. Concurrent misses on the same key
// may run the simulation twice (both arrive at the same result; the
// memo is purely a performance optimization).
type Runner struct {
	opt   Options
	ctx   context.Context       // base context for Run/MustRun (nil = Background)
	super *lifecycle.Supervisor // optional supervision of every run
	jobs  int                   // Warm worker count (see SetJobs; <1 = sequential)
	mu    sync.Mutex
	cache map[string]sim.Result
	// cycles accumulates the simulated cycles of every non-memoized
	// run (the benchmark gate's throughput denominator); visited
	// accumulates the cycles those runs actually simulated, so the
	// gate can report the event scheduler's skip efficiency.
	cycles  uint64
	visited uint64
	// Progress, when set, receives a line per completed run. It must
	// itself be safe for concurrent use when the runner is shared.
	Progress func(msg string)
}

// NewRunner builds a runner with the given options.
func NewRunner(opt Options) *Runner {
	return &Runner{opt: opt.withDefaults(), cache: make(map[string]sim.Result)}
}

// Options returns the effective (defaulted) options.
func (r *Runner) Options() Options { return r.opt }

// SetContext installs the base context every context-less Run call
// (and therefore every figure's MustRun) executes under, making whole
// figure harnesses cancellable by SIGINT or a sweep deadline.
func (r *Runner) SetContext(ctx context.Context) { r.ctx = ctx }

// Supervise routes every run through the supervisor: panic
// containment, per-run wall-clock deadline, classified retry, and
// journaling of each outcome with the resolved seed.
func (r *Runner) Supervise(s *lifecycle.Supervisor) { r.super = s }

func (r *Runner) baseCtx() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// Run simulates one workload under one variant, memoized. It returns
// an error when the configuration is invalid or the run aborts (cycle
// budget, deadlock, protocol violation, cancellation).
func (r *Runner) Run(wl string, v Variant) (sim.Result, error) {
	return r.RunCtx(r.baseCtx(), wl, v)
}

// RunCtx is Run under explicit cancellation.
func (r *Runner) RunCtx(ctx context.Context, wl string, v Variant) (sim.Result, error) {
	key := wl + "#" + v.key()
	r.mu.Lock()
	res, ok := r.cache[key]
	r.mu.Unlock()
	if ok {
		return res, nil
	}
	exec := func(ctx context.Context) (sim.Result, error) {
		p, err := workload.Get(wl)
		if err != nil {
			return sim.Result{}, fmt.Errorf("experiments: %w", err)
		}
		progs := workload.Generate(p, r.opt.Cores, r.opt.Instrs, r.opt.Seed)
		cfg := v.Config(r.opt.Cores)
		s, err := sim.New(cfg, progs, sim.WithWarmFilter(workload.WarmFilter(p)))
		if err != nil {
			return sim.Result{}, fmt.Errorf("experiments: %w", err)
		}
		return s.RunCtx(ctx)
	}
	var err error
	if r.super != nil {
		job := lifecycle.Job{Key: fmt.Sprintf("%s under %s seed=%d", wl, v.Name, r.opt.Seed), Seed: r.opt.Seed}
		out := r.super.Do(ctx, job, exec)
		if out.Status != lifecycle.StatusOK {
			return sim.Result{}, fmt.Errorf("experiments: %s under %s [%s after %d attempt(s)]: %w",
				wl, v.Name, out.Status, out.Attempts, out.Err)
		}
		res = out.Result
	} else {
		res, err = exec(ctx)
		if err != nil {
			return sim.Result{}, fmt.Errorf("experiments: %s under %s: %w", wl, v.Name, err)
		}
	}
	r.mu.Lock()
	r.cache[key] = res
	r.cycles += res.Cycles
	r.visited += res.CyclesVisited
	r.mu.Unlock()
	if r.Progress != nil {
		r.Progress(fmt.Sprintf("ran %-14s %-16s %12d cycles", wl, v.Name, res.Cycles))
	}
	return res, nil
}

// MustRun is Run for the figure harnesses, where an aborted run is a
// bug in the simulator, not an expected condition.
func (r *Runner) MustRun(wl string, v Variant) sim.Result {
	res, err := r.Run(wl, v)
	if err != nil {
		panic(err)
	}
	return res
}

// RunPrograms simulates explicit programs (the microbenchmark path)
// under the runner's base context and supervisor, when set.
func (r *Runner) RunPrograms(cfg *config.Config, progs []trace.Program) (sim.Result, error) {
	exec := func(ctx context.Context) (sim.Result, error) {
		s, err := sim.New(cfg, progs)
		if err != nil {
			return sim.Result{}, fmt.Errorf("experiments: %w", err)
		}
		return s.RunCtx(ctx)
	}
	if r.super != nil {
		job := lifecycle.Job{Key: fmt.Sprintf("programs(%d) seed=%d", len(progs), r.opt.Seed), Seed: r.opt.Seed}
		out := r.super.Do(r.baseCtx(), job, exec)
		if out.Status != lifecycle.StatusOK {
			return sim.Result{}, fmt.Errorf("experiments: programs [%s after %d attempt(s)]: %w",
				out.Status, out.Attempts, out.Err)
		}
		return out.Result, nil
	}
	res, err := exec(r.baseCtx())
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %w", err)
	}
	return res, nil
}

// MustRunPrograms is RunPrograms with the figure-harness convention.
func (r *Runner) MustRunPrograms(cfg *config.Config, progs []trace.Program) sim.Result {
	res, err := r.RunPrograms(cfg, progs)
	if err != nil {
		panic(err)
	}
	return res
}

// SimulatedCycles returns the total simulated cycles executed by this
// runner's completed (non-memoized) runs — the throughput denominator
// the benchmark-regression gate reports against wall time.
func (r *Runner) SimulatedCycles() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cycles
}

// VisitedCycles returns the total cycles those runs' event loops
// actually visited; 1 - visited/simulated is the skip efficiency.
func (r *Runner) VisitedCycles() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.visited
}

// Norm returns v normalized to base (the paper normalizes execution
// times to the eager baseline).
func Norm(v, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return float64(v) / float64(base)
}
