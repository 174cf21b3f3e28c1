package sim

import (
	"context"
	"fmt"
)

// runEvent is the next-event loop. Each iteration computes the
// earliest future cycle at which anything can happen — a mesh arrival,
// a cache pipeline event or forced-release expiry, a core wheel event
// or front-end un-stall, or a maintenance cadence — jumps the clock
// there, and visits only the nodes that are due. Equivalence with
// runCycle rests on three pillars:
//
//   - The NextEventAt contract: a component reporting its next event
//     at cycle t does no observable work in (now, t) absent external
//     input, and external input (mail, a same-node client call) always
//     lands on a visited node. WithCrossCheck verifies the contract by
//     visiting every cycle and replaying the ticks the wake times said
//     were skippable, asserting their work counters unchanged.
//   - Phase order: within a visited cycle the loop runs banks, then
//     caches in index order, then cores in index order — exactly the
//     cycle loop's order with provably idle ticks removed — so every
//     message send happens at the same cycle, in the same global
//     order, with the same mesh sequence number and the same fault
//     injector RNG draw as in cycle mode.
//   - Maintenance bounds: the jump never overshoots the next multiple
//     of 1024 or checkEvery, or MaxCycles+1, so the watchdog, context
//     poll, coherence check, checkpoints and the cycle budget fire at
//     identical simulated cycles.
//
//rowlint:entry
func (s *System) runEvent(ctx context.Context, ms *maintState) (Result, error) {
	n := len(s.caches)
	cacheWake := make([]uint64, n)
	coreWake := make([]uint64, n)
	visit := make([]bool, n)
	activeCores := 0
	for i, c := range s.cores {
		cacheWake[i] = s.caches[i].NextEventAt(s.cycle)
		coreWake[i] = c.NextEventAt(s.cycle)
		if !c.Done() {
			activeCores++
		}
	}
	for activeCores > 0 {
		target := s.nextTarget(cacheWake, coreWake)
		if s.crossCheck {
			target = s.cycle + 1
		}
		if target <= s.cycle {
			panic(fmt.Sprintf("sim: event scheduler would not advance past cycle %d", s.cycle))
		}
		s.cycle = target
		s.visited++
		cyc := s.cycle
		s.mesh.Tick(cyc)
		for i, d := range s.dirs {
			node := s.cfg.NumCores + i
			if !s.mesh.HasMail(node) {
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
			c := s.cores[i]
			coreLive := !c.Done()
			mail := s.mesh.HasMail(i)
			cacheDue := cacheWake[i] <= cyc
			visit[i] = mail || cacheDue || (coreLive && coreWake[i] <= cyc)
			if !visit[i] {
				if s.crossCheck {
					work := pc.WorkDone()
					pc.Tick(cyc)
					if pc.WorkDone() != work {
						panic(fmt.Sprintf("sim: cross-check: cache %d slept through work at cycle %d", i, cyc))
					}
				}
				continue
			}
			if coreLive && (mail || cacheDue) {
				// Cache-phase callbacks (completions, forced releases,
				// external requests) observe the core clock of the
				// previous cycle, exactly as in the cycle loop where
				// the core last ticked at cyc-1.
				c.SetNow(cyc - 1)
			}
			switch {
			case mail:
				// Deliver-time handlers read the controller clock the
				// previous cycle's Tick/SetNow left behind in the
				// cycle loop.
				pc.SetNow(cyc - 1)
				pc.Deliver(s.mesh.Drain(i))
				pc.Tick(cyc)
			case cacheDue:
				pc.Tick(cyc)
			default:
				// Core-only visit: the clock still advances so the
				// core's accesses schedule completions at the right
				// time. This replaces the cycle loop's per-cache
				// per-cycle SetNow — it now runs only on visits.
				pc.SetNow(cyc)
			}
		}
		for i, c := range s.cores {
			if c.Done() {
				continue
			}
			if !visit[i] {
				if s.crossCheck {
					work := c.WorkDone()
					c.Tick(cyc)
					if c.WorkDone() != work || c.Done() {
						panic(fmt.Sprintf("sim: cross-check: core %d slept through work at cycle %d", i, cyc))
					}
				}
				continue
			}
			c.Tick(cyc)
			if c.Done() {
				activeCores--
			}
		}
		// Only visited nodes can have changed state: unvisited caches
		// receive no mail and no client calls, unvisited cores no
		// responses, so their previously computed wake-ups stand.
		for i := 0; i < n; i++ {
			if visit[i] {
				cacheWake[i] = s.caches[i].NextEventAt(cyc)
				coreWake[i] = s.cores[i].NextEventAt(cyc)
			}
		}
		if err := s.postCycle(ctx, cyc, ms); err != nil {
			return Result{}, err
		}
	}
	if err := s.checkMsgConservation(); err != nil {
		return Result{}, err
	}
	return s.collect(), nil //rowlint:ignore bigcopy per-run result value, built once at run exit
}

// nextTarget computes the next cycle anything can happen at: the
// earliest component wake-up, bounded by the maintenance cadences so
// watchdog/poll/checkpoint/coherence checks and the cycle budget fire
// at the same simulated cycles as the cycle loop.
//
//rowlint:noalloc
func (s *System) nextTarget(cacheWake, coreWake []uint64) uint64 {
	target := (s.cycle &^ 1023) + 1024
	if s.checkEvery > 0 {
		if t := (s.cycle/s.checkEvery + 1) * s.checkEvery; t < target {
			target = t
		}
	}
	if s.cfg.MaxCycles > 0 && s.cfg.MaxCycles+1 > s.cycle && s.cfg.MaxCycles+1 < target {
		target = s.cfg.MaxCycles + 1
	}
	if t := s.mesh.NextEventAt(s.cycle); t < target {
		target = t
	}
	for i, t := range cacheWake {
		if t < target {
			target = t
		}
		if ct := coreWake[i]; ct < target {
			target = ct
		}
	}
	return target
}
