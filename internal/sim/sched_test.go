package sim

import (
	"encoding/json"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/faults"
	"rowsim/internal/workload"
)

// schedBuild assembles one system for the scheduler-equivalence tests.
func schedBuild(t *testing.T, policy config.AtomicPolicy, wl string, fc faults.Config, instrs int, opts ...Option) *System {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.Policy = policy
	cfg.MaxCycles = 50_000_000
	p := workload.MustGet(wl)
	progs := workload.Generate(p, cfg.NumCores, instrs, 11)
	all := []Option{WithWarmFilter(workload.WarmFilter(p))}
	if fc != (faults.Config{}) {
		all = append(all, WithFaults(fc))
	}
	all = append(all, opts...)
	s, err := New(cfg, progs, all...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// loopOpts selects the WithCycleLoop reference when cycle is set and
// the default event loop otherwise.
func loopOpts(cycle bool) []Option {
	if cycle {
		return []Option{WithCycleLoop()}
	}
	return nil
}

// rowsimBuild assembles a system the way cmd/rowsim does for
// `-workload wl -policy policy -cores 8 -instrs 4000`: default config
// (rwdir detection, ud predictor, forwarding on), early address
// calculation for RoW only, seed 1 and the workload's warm filter.
func rowsimBuild(t *testing.T, policy config.AtomicPolicy, wl string, opts ...Option) *System {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = 8
	cfg.Policy = policy
	cfg.EarlyAddrCalc = policy == config.PolicyRoW && cfg.RoW.Detection != config.DetectEW
	p := workload.MustGet(wl)
	progs := workload.Generate(p, cfg.NumCores, 4000, 1)
	s, err := New(cfg, progs, append([]Option{WithWarmFilter(workload.WarmFilter(p))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSchedulerModeEquivalence is the headline property of the event
// scheduler: over eager and lazy policies, with and without fault
// injection, the event-driven run must produce a Result byte-identical
// to the WithCycleLoop reference (modulo the visited-cycle
// bookkeeping) — and must actually have skipped cycles to earn its
// keep. The rowsim_ rows are built as cmd/rowsim builds them, and the
// normalized Result covers every field rowsim prints by default.
func TestSchedulerModeEquivalence(t *testing.T) {
	jitter := faults.Config{Seed: 9, JitterProb: 0.3, JitterMax: 12}
	reorder := faults.Config{Seed: 5, JitterProb: 0.25, JitterMax: 12, ReorderProb: 0.05, ReorderMax: 64}
	for _, tc := range []struct {
		name   string
		policy config.AtomicPolicy
		wl     string
		faults faults.Config
		rowsim bool
	}{
		{name: "eager_sps", policy: config.PolicyEager, wl: "sps"},
		{name: "eager_cq_jitter", policy: config.PolicyEager, wl: "cq", faults: jitter},
		{name: "lazy_cq", policy: config.PolicyLazy, wl: "cq"},
		{name: "lazy_sps_reorder", policy: config.PolicyLazy, wl: "sps", faults: reorder},
		{name: "row_pc", policy: config.PolicyRoW, wl: "pc"},
		{name: "row_cq_jitter", policy: config.PolicyRoW, wl: "cq", faults: jitter},
		{name: "far_tas", policy: config.PolicyFar, wl: "tas"},
		{name: "rowsim_cq_row", policy: config.PolicyRoW, wl: "cq", rowsim: true},
		{name: "rowsim_sps_lazy", policy: config.PolicyLazy, wl: "sps", rowsim: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(opts ...Option) *System {
				if tc.rowsim {
					return rowsimBuild(t, tc.policy, tc.wl, opts...)
				}
				return schedBuild(t, tc.policy, tc.wl, tc.faults, 3000, opts...)
			}
			cycle := build(WithCycleLoop()).MustRun()
			event := build().MustRun()
			if cycle.SchedNormalized() != event.SchedNormalized() {
				t.Fatalf("schedulers diverge:\ncycle: %+v\nevent: %+v", cycle, event)
			}
			if cycle.CyclesVisited != cycle.Cycles {
				t.Fatalf("cycle mode visited %d of %d cycles; want all", cycle.CyclesVisited, cycle.Cycles)
			}
			if event.CyclesVisited >= event.Cycles {
				t.Fatalf("event mode visited %d of %d cycles; skipped nothing", event.CyclesVisited, event.Cycles)
			}
		})
	}
}

// TestEventCrossCheckClean runs the event scheduler with the
// cross-check enabled: every cycle is visited, every tick the wake
// times said was skippable is replayed and asserted idle. A wrong
// NextEventAt panics inside the run; a divergent result fails here.
func TestEventCrossCheckClean(t *testing.T) {
	plain := schedBuild(t, config.PolicyRoW, "cq", faults.Config{}, 3000).MustRun()
	checked := schedBuild(t, config.PolicyRoW, "cq", faults.Config{}, 3000, WithCrossCheck()).MustRun()
	if plain.SchedNormalized() != checked.SchedNormalized() {
		t.Fatalf("event cross-check diverges from plain event run:\nplain:   %+v\nchecked: %+v", plain, checked)
	}
	if checked.CyclesVisited != checked.Cycles {
		t.Fatalf("cross-check visited %d of %d cycles; must visit all", checked.CyclesVisited, checked.Cycles)
	}
}

// TestEventModeLatenciesUnchanged is the regression test for the
// skip-path clock wart: completion events are now scheduled relative
// to event time (the controller clock is only advanced on visits), so
// every latency-derived metric must match the per-cycle SetNow
// reference exactly — hit latencies, miss fills, and the lock-window
// tail included.
func TestEventModeLatenciesUnchanged(t *testing.T) {
	cycle := schedBuild(t, config.PolicyEager, "canneal", faults.Config{}, 4000, WithCycleLoop()).MustRun()
	event := schedBuild(t, config.PolicyEager, "canneal", faults.Config{}, 4000).MustRun()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"MissLatency", event.MissLatency, cycle.MissLatency},
		{"MissLatencyP99", event.MissLatencyP99, cycle.MissLatencyP99},
		{"DispatchToIssue", event.DispatchToIssue, cycle.DispatchToIssue},
		{"IssueToLock", event.IssueToLock, cycle.IssueToLock},
		{"LockToUnlock", event.LockToUnlock, cycle.LockToUnlock},
		{"LockHoldP99", event.LockHoldP99, cycle.LockHoldP99},
		{"IPC", event.IPC, cycle.IPC},
	} {
		if c.got != c.want {
			t.Errorf("%s: event mode %v, cycle mode %v", c.name, c.got, c.want)
		}
	}
}

// TestCrossModeCheckpointRestore: a checkpoint taken under one loop
// must restore into the other and finish with the same
// normalized result as an uninterrupted run. The snapshot is
// round-tripped through JSON, as the on-disk checkpoint would be.
func TestCrossModeCheckpointRestore(t *testing.T) {
	jitter := faults.Config{Seed: 7, JitterProb: 0.2, JitterMax: 10}
	for _, tc := range []struct {
		name               string
		fromCycle, toCycle bool
		faults             faults.Config
	}{
		{name: "event_to_cycle", toCycle: true},
		{name: "cycle_to_event", fromCycle: true},
		{name: "event_to_cycle_jitter", toCycle: true, faults: jitter},
		{name: "cycle_to_event_jitter", fromCycle: true, faults: jitter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := schedBuild(t, config.PolicyRoW, "sps", tc.faults, 6000, loopOpts(tc.toCycle)...).MustRun()

			var snaps []SysSnap
			s := schedBuild(t, config.PolicyRoW, "sps", tc.faults, 6000, append(loopOpts(tc.fromCycle),
				WithCheckpoint(2048, func(cycle uint64, snap *SysSnap) error {
					snaps = append(snaps, *snap)
					return nil
				}))...)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 2 {
				t.Fatalf("expected at least 2 checkpoints, got %d", len(snaps))
			}
			mid := snaps[len(snaps)/2]
			b, err := json.Marshal(&mid)
			if err != nil {
				t.Fatal(err)
			}
			var decoded SysSnap
			if err := json.Unmarshal(b, &decoded); err != nil {
				t.Fatal(err)
			}

			resumed := schedBuild(t, config.PolicyRoW, "sps", tc.faults, 6000, loopOpts(tc.toCycle)...)
			if err := resumed.RestoreSnap(&decoded); err != nil {
				t.Fatal(err)
			}
			got := resumed.MustRun()
			if got.SchedNormalized() != want.SchedNormalized() {
				t.Fatalf("cross-mode resume (%s) diverged:\n got %+v\nwant %+v", tc.name, got, want)
			}
		})
	}
}

// TestSchedulerSteadyStateAllocs pins the event scheduler's per-cycle
// hot path — the wake-time queries and the jump-target computation —
// at zero allocations in steady state.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := schedBuild(t, config.PolicyRoW, "cq", faults.Config{}, 2000)
	n := len(s.caches)
	cacheWake := make([]uint64, n)
	coreWake := make([]uint64, n)
	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < n; i++ {
			cacheWake[i] = s.caches[i].NextEventAt(s.cycle)
			coreWake[i] = s.cores[i].NextEventAt(s.cycle)
		}
		_ = s.mesh.NextEventAt(s.cycle)
		_ = s.nextTarget(cacheWake, coreWake)
	}); avg != 0 {
		t.Fatalf("scheduler hot path allocates %.1f per cycle; want 0", avg)
	}
}
