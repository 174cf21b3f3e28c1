package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rowsim/internal/experiments"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

// The development seed and the held-out seed (see README.md). Both
// must have committed goldens for every workload.
const (
	devSeed     = 1
	heldOutSeed = 1009
)

const testGoldenDir = "golden"

// The direct run must reproduce experiments.Runner.Run exactly, for
// one cell of each sequential workload. (serve-ckpt cells use the
// daemon's SweepSpec configurations, which the runner cannot express;
// TestServeMatchesDirectRun covers them.)
func TestDirectRunMatchesRunner(t *testing.T) {
	for _, wl := range []string{"fig-small", "paper-long"} {
		cells, err := sequentialCells(wl, devSeed)
		if err != nil {
			t.Fatal(err)
		}
		c := cells[len(cells)-1]
		out, err := runFigureCell(context.Background(), nil, 1, c)
		if err != nil {
			t.Fatalf("%s %s: %v", wl, c.name(), err)
		}
		r := experiments.NewRunner(experiments.Options{Cores: c.Cores, Instrs: c.Instrs, Seed: c.Seed, Workloads: []string{c.Workload}})
		want, err := r.Run(c.Workload, c.Variant)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Result, want) {
			t.Errorf("%s %s: direct run %+v\nrunner %+v", wl, c.name(), out.Result, want)
		}
	}
}

// Building with WarmCaches off and calling System.Warm must leave the
// system in exactly the state the default sim.New builds.
func TestExplicitWarmMatchesDefault(t *testing.T) {
	cells, err := sequentialCells("fig-small", devSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []cellSpec{cells[0], cells[len(cells)-1]} {
		p := workload.MustGet(c.Workload)
		progs := workload.Generate(p, c.Cores, c.Instrs, c.Seed)
		def, err := sim.New(c.Variant.Config(c.Cores), progs, sim.WithWarmFilter(workload.WarmFilter(p)))
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Variant.Config(c.Cores)
		cfg.WarmCaches = false
		split, err := sim.New(cfg, progs, sim.WithWarmFilter(workload.WarmFilter(p)))
		if err != nil {
			t.Fatal(err)
		}
		split.Warm(progs)
		if !reflect.DeepEqual(def.Snapshot(), split.Snapshot()) {
			t.Errorf("%s: explicit warm differs from the default construction", c.name())
		}
	}
}

// A cell resumed from its newest checkpoint must finish with the
// uninterrupted cell's result; replayCells reports any difference.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	spec := serveSpecs(devSeed, 1)[0]
	spec.Values, spec.Policies = spec.Values[:1], []string{"row"}
	p := &passOut{Layer: map[string]float64{}}
	tr := newTracer()
	if err := replayCells(context.Background(), tr, spec, nil, t.TempDir(), p); err != nil {
		t.Fatal(err)
	}
	if p.Layer["checkpoint.saves"] == 0 {
		t.Fatal("the cell wrote no checkpoint, so nothing was resumed")
	}
	for _, e := range p.Extra {
		t.Error(e)
	}
	self := tr.selfTimes(0)
	for _, name := range []string{"checkpoint.save", "checkpoint.load", "sim.restore"} {
		if self[name] <= 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
}

// The daemon's results documents must equal the direct run's
// results for the same cells, and the committed golden.
func TestServeMatchesDirectRun(t *testing.T) {
	goldenDir, err := filepath.Abs(testGoldenDir)
	if err != nil {
		t.Fatal(err)
	}
	p := servePassIn(t, t.TempDir())
	for _, e := range p.Extra {
		t.Error(e)
	}
	i := 0
	for _, spec := range serveSpecs(devSeed, 1) {
		for _, c := range spec.Cells() {
			if p.Errs[i] != nil {
				t.Fatalf("%s: %v", p.Cells[i].Cell, p.Errs[i])
			}
			wp, err := spec.WorkloadParams(c)
			if err != nil {
				t.Fatal(err)
			}
			out, _, _, err := simCell(context.Background(), nil, 0, c.Key, wp, spec.Config(c), spec.Cores, spec.Instrs, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(out.Result, nil); got != p.Cells[i].Digest {
				t.Errorf("%s: daemon result differs from the direct run", p.Cells[i].Cell)
			}
			i++
		}
	}
	want, err := loadGolden(goldenDir, "serve-ckpt", devSeed)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := checkCells(p.Cells, p.Errs, byName(want))
	for _, bad := range bad {
		t.Error(bad)
	}
}

// One fig-small pass must match its committed golden.
func TestFigSmallMatchesGolden(t *testing.T) {
	p, err := sequentialPass("fig-small")(context.Background(), nil, devSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadGolden(testGoldenDir, "fig-small", devSeed)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := checkCells(p.Cells, p.Errs, byName(want))
	for _, bad := range bad {
		t.Error(bad)
	}
}

func TestGoldensCoverDevAndHeldOutSeeds(t *testing.T) {
	for wl := range workloads {
		for _, seed := range []uint64{devSeed, heldOutSeed} {
			cells, err := loadGolden(testGoldenDir, wl, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) == 0 {
				t.Errorf("%s: no golden for seed %d", wl, seed)
			}
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin("cell", 7)
	child := tr.begin("sim.run", 0)
	grand := tr.begin("checkpoint.save", 0)
	tr.end(grand)
	tr.end(child)
	tr.end(root)
	if s := tr.spans[grand-1]; s.Parent != child || s.Cell != 7 {
		t.Fatalf("grandchild span %+v: want parent %d, cell 7", s, child)
	}
	self := tr.selfTimes(0)
	total := self["cell"] + self["sim.run"] + self["checkpoint.save"]
	if d := tr.dur(root); total < d*0.999 || total > d*1.001 {
		t.Errorf("self times sum to %g, root lasted %g", total, d)
	}
	for name, v := range self {
		if v < 0 {
			t.Errorf("%s: negative self time %g", name, v)
		}
	}
}

// servePassIn runs one untraced serve-ckpt pass with dir as the
// working directory, where the pass keeps its journal under outDir.
func servePassIn(t *testing.T, dir string) *passOut {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	p, err := servePass(context.Background(), nil, devSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func byName(cells []goldenCell) map[string]goldenCell {
	m := map[string]goldenCell{}
	for _, c := range cells {
		m[c.Cell] = c
	}
	return m
}
