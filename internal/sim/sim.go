// Package sim assembles the full simulated system — cores, private
// caches, mesh interconnect and directory/L3 banks — and runs a
// workload to completion, extracting the metrics the experiment
// harnesses report.
package sim

import (
	"context"
	"fmt"
	"sort"

	"rowsim/internal/cache"
	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/core"
	"rowsim/internal/faults"
	"rowsim/internal/interconnect"
	"rowsim/internal/trace"
)

// System is one assembled multicore simulation.
type System struct {
	cfg    *config.Config
	mesh   *interconnect.Mesh
	cores  []*core.Core
	caches []*cache.Private
	dirs   []*coherence.Directory
	bankOf func(line uint64) int

	sink     *coherence.ErrorSink
	injector *faults.Injector
	pool     *coherence.MsgPool

	warmFilter func(core int, line uint64) bool
	checkEvery uint64
	watchdog   uint64
	crossCheck bool
	cycleLoop  bool

	ckptEvery uint64
	ckptFn    func(cycle uint64, snap *SysSnap) error
	lastCkpt  uint64

	cycle   uint64
	visited uint64 // loop iterations: cycles actually simulated (vs skipped)
}

// Option customizes system construction.
type Option func(*System)

// WithWarmFilter restricts cache warming: lines for which the filter
// returns false stay cold (e.g. a capacity-missing atomic region).
func WithWarmFilter(f func(core int, line uint64) bool) Option {
	return func(s *System) { s.warmFilter = f }
}

// WithInvariantChecks verifies the single-writer/multiple-reader
// coherence invariant every interval cycles (expensive; intended for
// tests). A violation aborts the run with a diagnostic error.
func WithInvariantChecks(interval uint64) Option {
	return func(s *System) { s.checkEvery = interval }
}

// WithFaults installs a fault injector on the interconnect (see the
// faults package). Legal fault mixes perturb timing only; illegal ones
// (dup/drop) exercise failure detection.
func WithFaults(cfg faults.Config) Option {
	return func(s *System) {
		s.injector = faults.New(cfg)
		s.mesh.SetPerturber(s.injector)
	}
}

// WithCrossCheck verifies the running loop's idle-skip decisions:
// every component the loop would skip is run anyway and asserted to be
// a no-op (empty drain for banks, unchanged work counter for caches
// and cores). The event loop additionally visits every cycle, so every
// tick its wake times said was skippable is replayed. A violated skip
// panics — it means the skip conditions are wrong and results could
// silently diverge from the always-tick loop. Enabled in tests and the
// torture harness; too slow for real runs (it defeats the skipping it
// checks).
func WithCrossCheck() Option {
	return func(s *System) { s.crossCheck = true }
}

// WithCycleLoop runs the reference lock-step loop, which ticks every
// component every cycle, instead of the event loop. It exists as the
// oracle the event loop is checked against (equivalence tests and the
// torture harness's replays) and produces a byte-identical Result
// (modulo CyclesVisited; see Result.SchedNormalized). It is a
// construction-time option, deliberately outside config.Config and
// the snapshot, so a checkpoint taken under one loop restores into the
// other.
func WithCycleLoop() Option {
	return func(s *System) { s.cycleLoop = true }
}

// WithCheckpoint arranges for fn to receive a full system snapshot
// every `every` simulated cycles (coarsened to the existing 1024-cycle
// cold-block cadence, so the per-cycle hot path pays nothing — with
// checkpointing off the only cost is one predictable compare every
// 1024 cycles). fn runs with the error sink checked empty and the
// simulated clock frozen; an error from fn aborts the run. Checkpoint
// cycles depend only on the cadence, never on wall-clock time, so two
// runs of the same workload checkpoint at identical instants.
func WithCheckpoint(every uint64, fn func(cycle uint64, snap *SysSnap) error) Option {
	return func(s *System) {
		s.ckptEvery = every
		s.ckptFn = fn
	}
}

// WithWatchdogWindow overrides the no-progress watchdog horizon
// (cycles without a commit before the run aborts with a deadlock
// report). Values at or below the 1024-cycle check cadence are raised
// to one cadence. Intended for tests; the default suits real runs.
func WithWatchdogWindow(cycles uint64) Option {
	return func(s *System) { s.watchdog = cycles }
}

// New builds a system running one program per core. Cores without a
// program idle (len(progs) may be less than NumCores).
func New(cfg *config.Config, progs []trace.Program, opts ...Option) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(progs) > cfg.NumCores {
		return nil, fmt.Errorf("sim: %d programs for %d cores", len(progs), cfg.NumCores)
	}
	n := cfg.NumCores
	banks := cfg.Mem.L3Banks
	mesh := interconnect.NewMesh(n+banks, cfg.Mem.LinkCycles, cfg.Mem.RouterCycles, cfg.Mem.BaseCycles)

	lineShift := uint(0)
	for 1<<lineShift < cfg.Mem.LineBytes {
		lineShift++
	}
	bankOf := func(line uint64) int {
		return n + int((line>>lineShift)%uint64(banks))
	}

	s := &System{cfg: cfg, mesh: mesh, bankOf: bankOf, sink: &coherence.ErrorSink{}, watchdog: watchdogWindow}
	// One message free list per system, shared by every protocol agent
	// and the mesh: the system is single-threaded, so the pool needs no
	// locking, and per-system ownership means concurrent systems can
	// never leak messages (or state) into each other.
	s.pool = &coherence.MsgPool{}
	mesh.SetErrorSink(s.sink)
	mesh.SetMsgPool(s.pool)
	for b := 0; b < banks; b++ {
		d := coherence.NewDirectory(
			n+b, b, mesh,
			cfg.Mem.L3.SizeBytes, cfg.Mem.L3.Ways, cfg.Mem.LineBytes,
			cfg.Mem.L3.HitCycles, cfg.Mem.DRAMCycles,
		)
		d.SetErrorSink(s.sink)
		d.SetMsgPool(s.pool)
		s.dirs = append(s.dirs, d)
	}
	for i := 0; i < n; i++ {
		var prog trace.Program
		if i < len(progs) {
			prog = progs[i]
		}
		c := core.New(i, cfg, prog)
		pc := cache.NewPrivate(i, cfg, mesh, c, bankOf)
		c.AttachMemory(pc)
		c.SetErrorSink(s.sink)
		pc.SetErrorSink(s.sink)
		pc.SetMsgPool(s.pool)
		s.cores = append(s.cores, c)
		s.caches = append(s.caches, pc)
	}
	for _, opt := range opts {
		opt(s)
	}
	if cfg.WarmCaches {
		s.Warm(progs)
	}
	return s, nil
}

// Cores exposes the simulated cores (stats inspection).
func (s *System) Cores() []*core.Core { return s.cores }

// Caches exposes the private caches (stats inspection).
func (s *System) Caches() []*cache.Private { return s.caches }

// Directories exposes the L3/directory banks (stats inspection).
func (s *System) Directories() []*coherence.Directory { return s.dirs }

// Cycle returns the current simulation cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// Warm pre-loads the caches with the lines the programs touch, the
// way a real evaluation measures a region of interest after warm-up:
// lines accessed by a single core are installed exclusively in that
// core's private L2 (and at the directory), lines shared by several
// cores are installed in the L3. Without this, short traces are
// dominated by cold first-touch DRAM misses that real ROI
// measurements never see.
func (s *System) Warm(progs []trace.Program) {
	lineMask := ^uint64(s.cfg.Mem.LineBytes - 1)
	owner := make(map[uint64]int)
	for c, prog := range progs {
		for i := range prog {
			in := &prog[i]
			if !in.IsMem() {
				continue
			}
			line := in.Addr & lineMask
			if prev, ok := owner[line]; ok && prev != c {
				owner[line] = -1 // shared
			} else if !ok {
				owner[line] = c
			}
		}
	}
	n := s.cfg.NumCores
	banks := s.cfg.Mem.L3Banks
	lineShift := uint(0)
	for 1<<lineShift < s.cfg.Mem.LineBytes {
		lineShift++
	}
	// Deterministic install order (map iteration is randomized):
	// warming happens in line-address order, so LRU keeps the highest
	// lines of an over-capacity region — a fixed, reproducible subset.
	lines := make([]uint64, 0, len(owner))
	for line := range owner {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		c := owner[line]
		if s.warmFilter != nil && !s.warmFilter(c, line) {
			continue
		}
		bank := int((line >> lineShift) % uint64(banks))
		if c >= 0 && c < n {
			s.dirs[bank].WarmOwned(line, c)
			s.caches[c].Warm(line, cache.StateE)
		} else {
			s.dirs[bank].WarmL3(line)
		}
	}
}

// watchdogWindow is the progress-check horizon: a healthy system
// commits something well within this many cycles.
const watchdogWindow = 1 << 19

// Run simulates until every core finishes its program. It returns a
// structured error when the cycle budget is exhausted
// (*CycleLimitError), the system stops making progress
// (*DeadlockError, with the wait-for chain), or a component detects a
// protocol violation (*coherence.ProtocolError, with the message trace
// for the affected line attached).
func (s *System) Run() (Result, error) {
	return s.RunCtx(context.Background())
}

// RunCtx is Run under cooperative cancellation: the context is polled
// at the existing 1024-cycle watchdog cadence (never on the per-cycle
// hot path), so an expired deadline or a canceled context stops the
// run within one check window and returns a *RunCanceledError wrapping
// ctx.Err(). The wall-clock deadline carried by the context is
// distinct from the simulated-cycle budget (Config.MaxCycles): the
// former bounds host time, the latter simulated time.
func (s *System) RunCtx(ctx context.Context) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, &RunCanceledError{Cycle: s.cycle, Cause: err}
	}
	ms := &maintState{watchdog: s.watchdog}
	if ms.watchdog < 1024 {
		ms.watchdog = 1024
	}
	if s.cycleLoop {
		return s.runCycle(ctx, ms)
	}
	return s.runEvent(ctx, ms)
}

// maintState is the per-run maintenance bookkeeping shared by both
// scheduler loops: the committed-progress watchdog.
type maintState struct {
	lastCommitted uint64
	lastProgress  uint64
	watchdog      uint64
}

// runCycle is the reference lock-step loop: every cycle visits the
// mesh, every bank, every cache and every active core.
//
//rowlint:entry
func (s *System) runCycle(ctx context.Context, ms *maintState) (Result, error) {
	// active holds the cores still running their programs, in core-index
	// order. Compacting it as cores finish replaces the per-cycle
	// all-core doneness rescan: the loop exits when the list empties.
	// Ticking a done core is a no-op (it returns immediately), so
	// dropping finished cores cannot change behaviour, only cost.
	active := make([]*core.Core, 0, len(s.cores))
	for _, c := range s.cores {
		if !c.Done() {
			active = append(active, c)
		}
	}
	for len(active) > 0 {
		s.cycle++
		s.visited++
		cyc := s.cycle
		s.mesh.Tick(cyc)
		for i, d := range s.dirs {
			node := s.cfg.NumCores + i
			if !s.mesh.HasMail(node) {
				// Banks are purely message-driven: no mail means no
				// work, and the bank clock only matters while handling.
				if s.crossCheck && s.mesh.Drain(node) != nil {
					panic(fmt.Sprintf("sim: cross-check: bank %d skipped with mail at cycle %d", i, cyc))
				}
				continue
			}
			d.SetCycle(cyc)
			for _, m := range s.mesh.Drain(node) {
				d.Handle(m)
			}
		}
		for i, pc := range s.caches {
			// Drain contract: nil exactly when the inbox is empty, so
			// HasMail is the cheap precheck and Deliver never sees an
			// empty batch.
			if s.mesh.HasMail(i) {
				pc.Deliver(s.mesh.Drain(i))
				pc.Tick(cyc)
				continue
			}
			if pc.NeedsTick() {
				pc.Tick(cyc)
				continue
			}
			if s.crossCheck {
				// Replay the skipped Tick and require it observably
				// idle. (Tick also advances the clock, which is what
				// SetNow does on the skip path.)
				work := pc.WorkDone()
				pc.Tick(cyc)
				if pc.WorkDone() != work {
					panic(fmt.Sprintf("sim: cross-check: cache %d skipped with pending work at cycle %d", i, cyc))
				}
				continue
			}
			// The clock still advances: the core may issue accesses
			// this cycle, and their completion events are scheduled
			// relative to the controller's now.
			pc.SetNow(cyc)
		}
		n := 0
		for _, c := range active {
			c.Tick(cyc)
			if !c.Done() {
				active[n] = c
				n++
			}
		}
		active = active[:n]

		if err := s.postCycle(ctx, cyc, ms); err != nil {
			return Result{}, err
		}
	}
	if err := s.checkMsgConservation(); err != nil {
		return Result{}, err
	}
	return s.collect(), nil //rowlint:ignore bigcopy per-run result value, built once at run exit
}

// postCycle is the per-simulated-cycle epilogue shared by both
// scheduler loops: protocol-error surfacing, the cycle budget, the
// coherence-invariant cadence and the 1024-cycle cold block (context
// poll, progress watchdog, checkpoints). The event loop visits every
// multiple of 1024 and of checkEvery, so maintenance fires at the same
// simulated cycles in both modes.
func (s *System) postCycle(ctx context.Context, cyc uint64, ms *maintState) error {
	if pe := s.sink.Err(); pe != nil {
		pe.Trace = s.mesh.RecentTrace(pe.Line, 32)
		return pe
	}
	if s.cfg.MaxCycles > 0 && cyc > s.cfg.MaxCycles {
		return &CycleLimitError{MaxCycles: s.cfg.MaxCycles, Cycle: cyc, Dump: s.dump()}
	}
	if s.checkEvery > 0 && cyc%s.checkEvery == 0 {
		if err := s.CheckCoherence(); err != nil {
			return fmt.Errorf("sim: cycle %d: %w", cyc, err)
		}
	}
	if cyc&1023 == 0 {
		if err := ctx.Err(); err != nil {
			return &RunCanceledError{Cycle: cyc, Cause: err}
		}
		var committed uint64
		for _, c := range s.cores {
			committed += c.Stats.Committed
		}
		if committed != ms.lastCommitted {
			ms.lastCommitted = committed
			ms.lastProgress = cyc
		} else if cyc-ms.lastProgress > ms.watchdog {
			return s.diagnoseDeadlock(ms.watchdog)
		}
		if s.ckptEvery != 0 && cyc-s.lastCkpt >= s.ckptEvery {
			if !s.cycleLoop {
				// Normalize the component clocks the event loop left
				// stale on skipped nodes, so a snapshot is identical
				// in shape to a cycle-mode one and restores into
				// either mode. Done cores stay frozen at finishedAt,
				// matching the cycle loop (Tick returns early on
				// them). Nothing reads these clocks before the next
				// visit overwrites them, so the run itself is
				// unaffected.
				for _, pc := range s.caches {
					pc.SetNow(cyc)
				}
				for _, c := range s.cores {
					if !c.Done() {
						c.SetNow(cyc)
					}
				}
			}
			s.lastCkpt = cyc
			snap := s.Snapshot()
			if err := s.ckptFn(cyc, snap); err != nil {
				return fmt.Errorf("sim: checkpoint at cycle %d: %w", cyc, err)
			}
		}
	}
	return nil
}

// MsgAccounting returns the three message populations the pool
// conservation law relates: outstanding (pool gets minus puts), in
// flight (owned by the network), and retained (parked in directory
// waiting queues and cache stall tables).
func (s *System) MsgAccounting() (outstanding int64, inFlight, retained int) {
	outstanding = s.pool.Outstanding()
	inFlight = s.mesh.InFlightMsgs()
	for _, d := range s.dirs {
		retained += d.RetainedMsgs()
	}
	for _, pc := range s.caches {
		retained += pc.RetainedMsgs()
	}
	return outstanding, inFlight, retained
}

// checkMsgConservation asserts the pool conservation law at the end of
// a successful run: every message drawn from the pool is either still
// in flight, still retained, or was released. It runs only on the
// success path — error returns leave transactions legitimately open —
// and is a pure read: it never drains the network or perturbs stats,
// so enabling it cannot change any reported result. Legal fault
// injection keeps the books balanced (drops and duplicate copies are
// Put/Get through the pool by the mesh), so a nonzero residue is
// always a consume-or-retain bug in a component.
func (s *System) checkMsgConservation() error {
	outstanding, inFlight, retained := s.MsgAccounting()
	if outstanding != int64(inFlight)+int64(retained) {
		return &MsgLeakError{
			Cycle:       s.cycle,
			Outstanding: outstanding,
			InFlight:    inFlight,
			Retained:    retained,
		}
	}
	return nil
}

// FaultStats returns the injector's decision counts, or a zero value
// when no faults are installed.
func (s *System) FaultStats() faults.Stats {
	if s.injector == nil {
		return faults.Stats{}
	}
	return s.injector.Stats()
}

// MustRun runs and panics on simulation failure (experiment harness
// convenience: a failure is a bug, not an expected condition).
func (s *System) MustRun() Result {
	r, err := s.Run()
	if err != nil {
		panic(err)
	}
	return r //rowlint:ignore bigcopy per-run result value, built once at run exit
}

// CheckCoherence verifies the single-writer/multiple-reader invariant
// across every private cache: a line held M or E by one core must not
// be valid anywhere else. Transient windows exist while a transaction
// is in flight (data sent, old copy being invalidated), so lines with
// open directory transactions or in-flight messages are skipped; the
// check is therefore meaningful at quiesced instants and approximate
// otherwise — still enough to catch protocol regressions in tests.
func (s *System) CheckCoherence() error {
	if !s.mesh.Idle() {
		return nil // messages in flight: transient states expected
	}
	type holder struct {
		core  int
		state uint8
	}
	holders := make(map[uint64][]holder)
	for i, pc := range s.caches {
		if pc.PendingWork() {
			return nil
		}
		core := i
		pc.ForEachLine(func(line uint64, state uint8) {
			if state == cache.StateI {
				return
			}
			holders[line] = append(holders[line], holder{core: core, state: state})
		})
	}
	for _, d := range s.dirs {
		if d.PendingWork() {
			return nil
		}
	}
	// Sort the lines so that, when several are in violation, the same
	// one is reported on every run (the error text reaches logs and
	// torture-harness dedup keys).
	lines := make([]uint64, 0, len(holders))
	for line := range holders {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		hs := holders[line]
		if len(hs) < 2 {
			continue
		}
		for _, h := range hs {
			if h.state == cache.StateM || h.state == cache.StateE {
				verr := &CoherenceViolationError{Line: line}
				for _, hh := range hs {
					verr.Holders = append(verr.Holders, Holder{Core: hh.core, State: hh.state})
				}
				return verr
			}
		}
	}
	return nil
}

func (s *System) dump() string {
	out := ""
	for _, c := range s.cores {
		if !c.Done() {
			out += c.String() + "\n"
		}
	}
	for _, d := range s.dirs {
		for _, line := range d.DebugBlocked() {
			out += line + "\n"
		}
	}
	for _, pc := range s.caches {
		for _, line := range pc.DebugMSHRs() {
			out += line + "\n"
		}
	}
	return out
}
