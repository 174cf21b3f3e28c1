package sim

import (
	"fmt"

	"rowsim/internal/cache"
	"rowsim/internal/coherence"
	"rowsim/internal/core"
	"rowsim/internal/faults"
	"rowsim/internal/interconnect"
)

// SysSnap is a deep copy of the full system's mutable state at one
// simulated instant: every core pipeline, private cache, directory
// bank, the mesh (in-flight and inboxed messages), the message-pool
// accounting, the fault injector's RNG position, and the cycle
// counter. Restoring it into a freshly built System (same config, same
// regenerated programs) and resuming yields a run byte-identical to
// one that was never interrupted.
//
// Not captured, by design:
//
//   - programs: workload.Generate is a pure function of its parameters,
//     so the trace is regenerated on resume and core.Restore rebinds
//     instruction pointers by program index. The checkpoint content key
//     covers the generator parameters instead.
//   - the error sink: snapshots are taken in RunCtx's cold block, which
//     runs only after the sink has been checked empty that cycle — a
//     system with a recorded protocol error never reaches a checkpoint.
//   - construction-time wiring (config, bank mapping, warm filter,
//     check cadences): rebuilt by sim.New, validated by the content key.
type SysSnap struct {
	Cycle uint64 `json:"cycle"`
	// Visited is the cumulative visited-cycle count, carried so a
	// resumed run reports the same CyclesVisited as an uninterrupted
	// one in the same scheduler mode.
	Visited uint64                `json:"visited"`
	Mesh    interconnect.MeshSnap `json:"mesh"`
	// The per-component snapshots are held by pointer: each one is
	// built in place by its component and handed around by reference
	// (a CoreSnap alone is ~900 bytes). JSON encoding is unchanged.
	Cores  []*core.CoreSnap     `json:"cores"`
	Caches []*cache.CacheSnap   `json:"caches"`
	Dirs   []*coherence.DirSnap `json:"dirs"`
	Pool   coherence.PoolSnap   `json:"pool"`
	Faults faults.InjectorSnap  `json:"faults"`
}

// Snapshot captures the system's full mutable state. It is a pure
// read: taking a snapshot never perturbs the run.
func (s *System) Snapshot() *SysSnap {
	snap := &SysSnap{
		Cycle:   s.cycle,
		Visited: s.visited,
		Mesh:    s.mesh.Snapshot(),
		Pool:    s.pool.Snapshot(),
		Faults:  s.injector.Snapshot(),
	}
	for _, c := range s.cores {
		snap.Cores = append(snap.Cores, c.Snapshot())
	}
	for _, pc := range s.caches {
		snap.Caches = append(snap.Caches, pc.Snapshot())
	}
	for _, d := range s.dirs {
		snap.Dirs = append(snap.Dirs, d.Snapshot())
	}
	return snap
}

// RestoreSnap rewinds the system to a previously captured SysSnap. The
// system must have been built by sim.New with the same configuration
// and the same (regenerated) programs; the caller is expected to have
// verified that via the checkpoint content key, so a shape mismatch
// here reports an error rather than guessing. Every component snapshot
// is checked (ring and table sizes, SRAM lengths and line indexes)
// before any state is written: on error the system is unmodified.
func (s *System) RestoreSnap(snap *SysSnap) error {
	if len(snap.Cores) != len(s.cores) || len(snap.Caches) != len(s.caches) || len(snap.Dirs) != len(s.dirs) {
		return fmt.Errorf("sim: snapshot shape %d cores/%d caches/%d dirs does not match system %d/%d/%d",
			len(snap.Cores), len(snap.Caches), len(snap.Dirs), len(s.cores), len(s.caches), len(s.dirs))
	}
	if s.injector == nil && snap.Faults != (faults.InjectorSnap{}) {
		return fmt.Errorf("sim: snapshot carries fault-injector state but the system has no injector")
	}
	// Check every component snapshot before touching any component, so
	// a malformed checkpoint is an error and leaves the system as it was.
	for i, c := range s.cores {
		if snap.Cores[i] == nil {
			return fmt.Errorf("sim: snapshot has no state for core %d", i)
		}
		if err := c.CheckSnap(snap.Cores[i]); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	for i, pc := range s.caches {
		if snap.Caches[i] == nil {
			return fmt.Errorf("sim: snapshot has no state for cache %d", i)
		}
		if err := pc.CheckSnap(snap.Caches[i]); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	for i, d := range s.dirs {
		if snap.Dirs[i] == nil {
			return fmt.Errorf("sim: snapshot has no state for directory bank %d", i)
		}
		if err := d.CheckSnap(snap.Dirs[i]); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	s.cycle = snap.Cycle
	s.visited = snap.Visited
	s.lastCkpt = snap.Cycle
	s.mesh.Restore(snap.Mesh)
	s.pool.Restore(snap.Pool)
	s.injector.Restore(snap.Faults)
	for i, c := range s.cores {
		c.Restore(snap.Cores[i])
	}
	for i, pc := range s.caches {
		pc.Restore(snap.Caches[i])
	}
	for i, d := range s.dirs {
		d.Restore(snap.Dirs[i])
	}
	return nil
}
