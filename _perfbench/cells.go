package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rowsim/internal/config"
	"rowsim/internal/experiments"
	"rowsim/internal/sim"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

// cellSpec is one simulation cell of a sequential workload: a named
// workload under one figure variant at one geometry and seed.
type cellSpec struct {
	Workload string
	Variant  experiments.Variant
	Cores    int
	Instrs   int
	Seed     uint64
}

func (c cellSpec) name() string { return c.Workload + "/" + c.Variant.Name }

// figureVariants are the nine configurations the paper's figures
// compare (the rowbench figure suite).
var figureVariants = []experiments.Variant{
	experiments.VarEager, experiments.VarLazy,
	experiments.VarEWUD, experiments.VarEWSat,
	experiments.VarRWUD, experiments.VarRWSat,
	experiments.VarDirUD, experiments.VarDirSat,
	experiments.VarDirSatFwd,
}

// sequentialCells expands a sequential workload into its cells, in the
// fixed order they run.
func sequentialCells(name string, seed uint64) ([]cellSpec, error) {
	var wls []string
	var vs []experiments.Variant
	var cores, instrs int
	switch name {
	case "fig-small":
		// Setup-heavy: 27 short cells, where construction and warming
		// are about half the wall time.
		wls, vs, cores, instrs = []string{"canneal", "sps", "cq"}, figureVariants, 8, 3000
	case "paper-long":
		// Loop-heavy: paper-size cells, where the event loop dominates
		// and construction is about 1% of the wall time.
		wls = []string{"sps", "canneal"}
		vs = []experiments.Variant{experiments.VarEager, experiments.VarLazy, experiments.VarDirSat}
		cores, instrs = 32, 12000
	default:
		return nil, fmt.Errorf("not a sequential workload: %q", name)
	}
	var cells []cellSpec
	for _, wl := range wls {
		for _, v := range vs {
			cells = append(cells, cellSpec{Workload: wl, Variant: v, Cores: cores, Instrs: instrs, Seed: seed})
		}
	}
	return cells, nil
}

// cellOut is what one cell run yields: its result, the deterministic
// per-layer counts, and host timings of its phases.
type cellOut struct {
	Result sim.Result
	Counts counts

	GenerateS, ConstructS, WarmS float64
	// Alloc per phase in bytes; measured only when traced.
	ConstructAlloc, WarmAlloc, RunAlloc uint64
	TotalS                              float64
}

// setupS is the host time before the cell's first simulated cycle.
func (o *cellOut) setupS() float64 { return o.GenerateS + o.ConstructS + o.WarmS }

// phaseClock times the phases of one cell and, when traced, records a
// span and the heap bytes allocated around each.
type phaseClock struct {
	tr *tracer
	ms runtime.MemStats
}

// phase runs f as one named phase and returns its host seconds and,
// when traced, the heap bytes it allocated.
func (p *phaseClock) phase(name string, f func()) (sec float64, alloc uint64) {
	if p.tr != nil {
		runtime.ReadMemStats(&p.ms)
		before := p.ms.TotalAlloc
		id := p.tr.begin(name, 0)
		f()
		p.tr.end(id)
		sec = p.tr.dur(id)
		runtime.ReadMemStats(&p.ms)
		return sec, p.ms.TotalAlloc - before
	}
	start := time.Now()
	f()
	return time.Since(start).Seconds(), 0
}

// simCell runs one cell through the same public calls the experiments
// runner makes (workload.Generate, sim.New with the workload's warm
// filter, System.RunCtx), with construction and warming split:
// sim.New runs with WarmCaches off and System.Warm is called
// explicitly, which equivalence tests prove identical to the default.
// extra options (checkpointing) are appended to sim.New's.
func simCell(ctx context.Context, tr *tracer, cellID int, name string, p workload.Params,
	cfg *config.Config, cores, instrs int, seed uint64, extra ...sim.Option) (cellOut, *sim.System, []trace.Program, error) {
	var out cellOut
	start := time.Now()
	root := tr.begin("cell", cellID)
	tr.arg(root, "cell", name)
	pc := &phaseClock{tr: tr}

	var progs []trace.Program
	out.GenerateS, _ = pc.phase("workload.generate", func() {
		progs = workload.Generate(p, cores, instrs, seed)
	})
	cfg.WarmCaches = false
	var sys *sim.System
	var err error
	out.ConstructS, out.ConstructAlloc = pc.phase("sim.construct", func() {
		opts := append([]sim.Option{sim.WithWarmFilter(workload.WarmFilter(p))}, extra...)
		sys, err = sim.New(cfg, progs, opts...)
	})
	if err != nil {
		tr.end(root)
		return out, nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	out.WarmS, out.WarmAlloc = pc.phase("sim.warm", func() { sys.Warm(progs) })
	_, out.RunAlloc = pc.phase("sim.run", func() { out.Result, err = sys.RunCtx(ctx) })
	tr.end(root)
	out.TotalS = time.Since(start).Seconds()
	if err != nil {
		return out, nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	total := 0
	for _, prog := range progs {
		total += len(prog)
	}
	if out.Result.Committed != uint64(total) {
		return out, nil, nil, fmt.Errorf("%s: committed %d of %d instructions", name, out.Result.Committed, total)
	}
	out.Counts = collectCounts(sys, out.Result)
	return out, sys, progs, nil
}

// runFigureCell runs one cell of a sequential workload.
func runFigureCell(ctx context.Context, tr *tracer, cellID int, c cellSpec) (cellOut, error) {
	p, err := workload.Get(c.Workload)
	if err != nil {
		return cellOut{}, err
	}
	out, sys, _, err := simCell(ctx, tr, cellID, c.name(), p, c.Variant.Config(c.Cores), c.Cores, c.Instrs, c.Seed)
	if err == nil {
		out.Counts.addHops(tr, cellID, sys)
	}
	return out, err
}

// sequentialPass returns the pass function of a sequential workload:
// every cell runs one after another on the calling goroutine.
func sequentialPass(name string) passFunc {
	return func(ctx context.Context, tr *tracer, seed uint64, _ int) (*passOut, error) {
		cells, err := sequentialCells(name, seed)
		if err != nil {
			return nil, err
		}
		p := &passOut{}
		mark := 0
		if tr != nil {
			mark = tr.mark()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		start := time.Now()
		for i, c := range cells {
			out, err := runFigureCell(ctx, tr, i+1, c)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			p.Errs = append(p.Errs, err)
			p.Cells = append(p.Cells, goldenCell{
				Cell: c.name(), Digest: digest(out.Result, &out.Counts),
				Cycles: out.Result.Cycles, CyclesVisited: out.Result.CyclesVisited,
			})
			p.SetupS += out.setupS()
			p.Turnarounds = append(p.Turnarounds, out.TotalS)
			p.Committed += out.Result.Committed
			p.Counts.add(out.Counts)
			p.ConstructAlloc += out.ConstructAlloc
			p.WarmAlloc += out.WarmAlloc
			p.RunAlloc += out.RunAlloc
		}
		p.WallS = time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		p.AllocBytes = ms.TotalAlloc - alloc0
		if tr != nil {
			p.Self = tr.selfTimes(mark)
			// The hop snapshots are bookkeeping the untraced pass does
			// not do; keep them out of the traced pass's wall time.
			p.WallS -= p.Self["bench.snapshot"]
		}
		return p, nil
	}
}
