// Package core is an epochsafe fixture: a miniature shard seeding
// every violation shape the analyzer must catch — seam kind
// mismatches (on concrete seams and on implementations of an
// interface seam), post-init writes to readonly and package-level
// state, and sync/channel/goroutine hazards inside shard-owned
// domains — next to the proven idioms it must not flag (commutative
// reduction seams, buffered enqueues, construction-only writes,
// suppression with a reason).
package core

import (
	"sync"
	"sync/atomic"

	"rowsim/internal/lint/testdata/src/epochsafe/config"
)

// Globals stands in for the simulation-wide accumulators the parallel
// plan replicates per shard and merges at epoch boundaries.
//
//rowlint:owner sim-global
type Globals struct {
	Total uint64
	Last  uint64
	wired bool
}

// Bump is a proven reduction seam: an increment commutes, so per-shard
// replicas merge cleanly.
//
//rowlint:seam reduction epoch-merged visit counter; increments commute across shards
func (g *Globals) Bump() { g.Total++ }

// SetLast declares a reduction but stores last-writer-wins state —
// a plain store does not commute, so the seam must be flagged.
//
//rowlint:seam reduction last-observed value, merged at the barrier
func (g *Globals) SetLast(v uint64) { g.Last = v }

// Wire is a proven init-only seam: nothing on the entry path reaches
// it, so the crossing stays confined to construction.
//
//rowlint:seam init-only wiring happens before the run starts
func (g *Globals) Wire() { g.wired = true }

// Rewire claims init-only but Tick calls it — the reachability proof
// must fail.
//
//rowlint:seam init-only re-wiring is construction-only by convention
func (g *Globals) Rewire() { g.wired = false }

// Router stands in for the mesh: the one legal cross-shard channel.
//
//rowlint:owner mesh
type Router struct {
	queue []uint64
}

// Push is a proven buffered seam: the write lands in mesh state and is
// delivered at the next epoch boundary.
//
//rowlint:seam buffered epoch-deferred delivery; the queue drains at the barrier
func (r *Router) Push(v uint64) { r.queue = append(r.queue, v) }

// Sink is the declared core→cache handoff surface. The seam kind is
// promised here, on the interface method; every implementation in the
// module must honour it.
//
//rowlint:owner cache[i]
type Sink interface {
	// Ingest accepts one value from the same-index core.
	//
	//rowlint:seam same-index core→cache handoff; core[i] and cache[i] share a shard
	Ingest(v uint64)
}

// globalSpill is shared across every instance — no shard can own it.
var globalSpill uint64

// CacheSide is the cache half of the shard, with deliberate hazards:
// a mutex and a channel embedded in shard-owned state are flagged as
// fields, and Flush exercises every banned construct.
//
//rowlint:owner cache[i]
type CacheSide struct {
	Loads uint64
	dirty uint64
	g     *Globals
	mu    sync.Mutex
	ch    chan uint64
}

// Ingest honours the same-index promise: it writes only its own
// instance and folds the tally through a declared reduction seam.
func (c *CacheSide) Ingest(v uint64) {
	c.Loads += v
	c.g.Bump()
}

// Spill declares same-index but writes sim-global state directly —
// the crossing leaves the shard, so the kind proof must fail.
//
//rowlint:seam same-index spill accounting stays on the shard
func (c *CacheSide) Spill(g *Globals) { g.Total++ }

// Flush seeds the determinism hazards: inside an epoch a shard runs
// single-threaded, so every construct here is banned.
func (c *CacheSide) Flush() {
	c.mu.Lock()
	c.ch <- c.dirty
	v := <-c.ch
	go c.drain(v)
	atomic.AddUint64(&c.dirty, 1)
	c.mu.Unlock()
}

func (c *CacheSide) drain(v uint64) { c.dirty = v }

// Evict carries a seam directive whose kind is not checkable.
//
//rowlint:seam deferred evict path
func (c *CacheSide) Evict() {}

// Sweep's seam kind is legal but the mandatory reason is missing.
//
//rowlint:seam buffered
func (c *CacheSide) Sweep() {}

// Spool is a second implementation of Sink from another shard domain.
// Its Ingest inherits the interface's same-index promise and breaks
// it with a package-level write.
//
//rowlint:owner bank[i]
type Spool struct {
	Depth uint64
}

// Ingest spills into shared package state — flagged at this
// implementation against the seam declared on Sink.Ingest.
func (s *Spool) Ingest(v uint64) { globalSpill += v }

// Shard is the visiting core; its domain is inferred from the package
// name.
type Shard struct {
	cfg    *config.Config
	cache  *CacheSide
	g      *Globals
	router *Router
	sink   Sink
}

// visits counts ticks across every shard instance — package-level
// state in a deterministic package, frozen once the run starts.
var visits uint64

// Run drives the fixture the way the scheduler would.
//
//rowlint:entry
func Run(shards []*Shard) {
	for _, s := range shards {
		s.Tick()
	}
}

// Tick seeds the post-init violations among legal crossings.
func (s *Shard) Tick() {
	s.cfg.Warmed = true // post-init write to readonly state
	mutateConfig(s.cfg)
	visits++ // post-init write to deterministic package-level state
	s.g.Rewire()
	s.router.Push(3) // buffered seam: legal
	s.sink.Ingest(7) // declared interface seam: legal
}

// mutateConfig is a free function, so shardown's per-method pass never
// sees it — only the epochsafe reachability walk catches the post-init
// config writes.
func mutateConfig(cfg *config.Config) {
	cfg.Cores++
	cfg.Warmed = false //rowlint:ignore epochsafe fixture: justified post-init write, kept suppressed
}
