package cache

import (
	"fmt"
	"sort"

	"rowsim/internal/coherence"
	"rowsim/internal/sram"
)

// This file is the private cache's half of the snapshot/restore and
// choice-point interface the model checker (internal/mcheck) drives.
// Snapshots deep-copy every retained message by value; the MsgPool
// ownership discipline guarantees a retained *Msg has exactly one
// owner, so restoring fresh copies can never alias a live message.

// WaiterSnap is the exported view of one access waiting on a fill or
// a far RMW completion.
type WaiterSnap struct {
	Tag   uint64
	At    uint64
	Write bool
}

// MSHRSnap is the exported view of one outstanding miss.
type MSHRSnap struct {
	Line        uint64
	Write       bool
	DataArrived bool
	Grant       coherence.GrantState
	FromPrivate bool
	PendingAcks int
	SentAt      uint64
	Waiters     []WaiterSnap
}

// StalledSnap is the exported view of one external request parked
// behind a locked line.
type StalledSnap struct {
	Line    uint64
	StallAt uint64
	Msg     coherence.Msg
}

// FarSnap is the exported view of one line's outstanding far RMWs.
type FarSnap struct {
	Line    uint64
	Waiters []WaiterSnap
}

// EventSnap is the exported view of one pending pipeline event
// (lookup completion or deferred miss).
type EventSnap struct {
	At   uint64 `json:"at"`
	Seq  uint64 `json:"seq"`
	Kind uint8  `json:"kind"`
	Tag  uint64 `json:"tag"`
	Line uint64 `json:"line"`
	Wr   bool   `json:"wr"`
	Lat  uint64 `json:"lat"`
}

// StrideSnap is the exported view of one stride-prefetcher table entry.
type StrideSnap struct {
	PC       uint64 `json:"pc"`
	LastAddr uint64 `json:"last_addr"`
	Stride   int64  `json:"stride"`
	Conf     int    `json:"conf"`
}

// CacheSnap is a deep copy of the controller's mutable state. The
// MSHR, stalled and far tables are key-sorted so two snapshots of
// equal logical state compare equal regardless of internal table
// order (the flat tables use swap-removal, which permutes entries
// without changing behaviour). Stats ride along so a restored run
// reports byte-identical counters; every field is exported because
// checkpoints serialize the whole snapshot to disk.
type CacheSnap struct {
	Now, Seq uint64
	Work     uint64

	MSHRs   []MSHRSnap
	Stalled []StalledSnap
	Far     []FarSnap
	FarDef  []FarSnap // far RMWs deferred behind an in-flight miss

	L1, L2  sram.Snap
	Events  []EventSnap
	Strides []StrideSnap
	Stats   Stats
}

func snapWaiters(ws []waiter) []WaiterSnap {
	out := make([]WaiterSnap, 0, len(ws))
	for _, w := range ws {
		out = append(out, WaiterSnap{Tag: w.tag, At: w.at, Write: w.write})
	}
	return out
}

func restoreWaiters(ws []WaiterSnap) []waiter {
	var out []waiter
	for _, w := range ws {
		out = append(out, waiter{tag: w.Tag, at: w.At, write: w.Write})
	}
	return out
}

// Snapshot captures the controller's protocol and pipeline state. It
// returns a pointer so the snapshot is built once and handed around by
// reference rather than bulk-copied.
func (p *Private) Snapshot() *CacheSnap {
	s := &CacheSnap{
		Now: p.now, Seq: p.seq, Work: p.work,
		L1:    p.l1.Snapshot(),
		L2:    p.l2.Snapshot(),
		Stats: p.Stats,
	}
	s.Stats.MissHist = p.Stats.MissHist.Clone()
	for _, e := range p.events {
		s.Events = append(s.Events, EventSnap{
			At: e.at, Seq: e.seq, Kind: e.kind, Tag: e.tag, Line: e.line, Wr: e.wr, Lat: e.lat,
		})
	}
	for _, t := range p.strides {
		s.Strides = append(s.Strides, StrideSnap{PC: t.pc, LastAddr: t.lastAddr, Stride: t.stride, Conf: t.conf})
	}
	for i := range p.mshrs.ms {
		m := &p.mshrs.ms[i]
		s.MSHRs = append(s.MSHRs, MSHRSnap{
			Line: p.mshrs.lines[i], Write: m.write, DataArrived: m.dataArrived,
			Grant: m.grant, FromPrivate: m.fromPrivate, PendingAcks: m.pendingAcks,
			SentAt: m.sentAt, Waiters: snapWaiters(m.waiters),
		})
	}
	sort.Slice(s.MSHRs, func(i, j int) bool { return s.MSHRs[i].Line < s.MSHRs[j].Line })
	for i := range p.stalled.exts {
		s.Stalled = append(s.Stalled, StalledSnap{
			Line: p.stalled.lines[i], StallAt: p.stalled.exts[i].stallAt, Msg: *p.stalled.exts[i].msg,
		})
	}
	sort.Slice(s.Stalled, func(i, j int) bool { return s.Stalled[i].Line < s.Stalled[j].Line })
	//rowlint:ignore maporder entries are key-sorted immediately below
	for line, ws := range p.pendingFar {
		s.Far = append(s.Far, FarSnap{Line: line, Waiters: snapWaiters(ws)})
	}
	sort.Slice(s.Far, func(i, j int) bool { return s.Far[i].Line < s.Far[j].Line })
	//rowlint:ignore maporder entries are key-sorted immediately below
	for line, ws := range p.farDeferred {
		s.FarDef = append(s.FarDef, FarSnap{Line: line, Waiters: snapWaiters(ws)})
	}
	sort.Slice(s.FarDef, func(i, j int) bool { return s.FarDef[i].Line < s.FarDef[j].Line })
	return s
}

// CheckSnap reports whether s fits this controller: the L1 and L2
// snapshots must fit their arrays and the stride table must not
// outgrow the prefetcher's. Restore panics on a snapshot CheckSnap
// rejects, so callers restoring untrusted data (checkpoints) call it
// first.
func (p *Private) CheckSnap(s *CacheSnap) error {
	if err := p.l1.CheckSnap(&s.L1); err != nil {
		return fmt.Errorf("cache %d: l1: %w", p.coreID, err)
	}
	if err := p.l2.CheckSnap(&s.L2); err != nil {
		return fmt.Errorf("cache %d: l2: %w", p.coreID, err)
	}
	if len(s.Strides) > len(p.strides) {
		return fmt.Errorf("cache %d: snapshot has %d stride entries, prefetcher holds %d", p.coreID, len(s.Strides), len(p.strides))
	}
	return nil
}

// Restore rewinds the controller to a previously captured CacheSnap.
// Stalled messages are reconstituted as fresh allocations, never drawn
// from the pool (the pool counters are restored separately; a Get here
// would double-count the retained population).
func (p *Private) Restore(s *CacheSnap) {
	p.now, p.seq, p.work = s.Now, s.Seq, s.Work
	p.l1.Restore(s.L1)
	p.l2.Restore(s.L2)
	p.Stats = s.Stats
	p.Stats.MissHist = s.Stats.MissHist.Clone()
	p.events = p.events[:0]
	for _, e := range s.Events {
		p.events = append(p.events, event{
			at: e.At, seq: e.Seq, kind: e.Kind, tag: e.Tag, line: e.Line, wr: e.Wr, lat: e.Lat,
		})
	}
	for i := range p.strides {
		p.strides[i] = strideEntry{}
	}
	for i, t := range s.Strides {
		p.strides[i] = strideEntry{pc: t.PC, lastAddr: t.LastAddr, stride: t.Stride, conf: t.Conf}
	}

	p.mshrs.lines = p.mshrs.lines[:0]
	p.mshrs.ms = p.mshrs.ms[:0]
	for _, ms := range s.MSHRs {
		p.mshrs.add(ms.Line, mshr{
			line: ms.Line, write: ms.Write, dataArrived: ms.DataArrived,
			grant: ms.Grant, fromPrivate: ms.FromPrivate, pendingAcks: ms.PendingAcks,
			sentAt: ms.SentAt, waiters: restoreWaiters(ms.Waiters),
		})
	}
	p.stalled.lines = p.stalled.lines[:0]
	p.stalled.exts = p.stalled.exts[:0]
	for _, st := range s.Stalled {
		msg := new(coherence.Msg)
		*msg = st.Msg
		p.stalled.add(st.Line, stalledExt{msg: msg, stallAt: st.StallAt})
	}
	p.pendingFar = make(map[uint64][]waiter, len(s.Far))
	for _, f := range s.Far {
		p.pendingFar[f.Line] = restoreWaiters(f.Waiters)
	}
	p.farDeferred = make(map[uint64][]waiter, len(s.FarDef))
	for _, f := range s.FarDef {
		p.farDeferred[f.Line] = restoreWaiters(f.Waiters)
	}
}

// MSHRView returns the exported view of the line's outstanding miss;
// ok is false when none is in flight.
func (p *Private) MSHRView(line uint64) (MSHRSnap, bool) {
	m := p.mshrs.get(line)
	if m == nil {
		return MSHRSnap{}, false
	}
	return MSHRSnap{
		Line: line, Write: m.write, DataArrived: m.dataArrived,
		Grant: m.grant, FromPrivate: m.fromPrivate, PendingAcks: m.pendingAcks,
		SentAt: m.sentAt, Waiters: snapWaiters(m.waiters),
	}, true
}

// StalledView returns a copy of the external request stalled on the
// line; ok is false when none is parked.
func (p *Private) StalledView(line uint64) (coherence.Msg, bool) {
	s := p.stalled.get(line)
	if s == nil {
		return coherence.Msg{}, false
	}
	return *s.msg, true
}

// FarView returns the line's outstanding far RMW waiters, in issue
// order (nil when none).
func (p *Private) FarView(line uint64) []WaiterSnap {
	ws := p.pendingFar[line]
	if len(ws) == 0 {
		return nil
	}
	return snapWaiters(ws)
}

// FarDeferredView returns the line's far RMWs parked behind an
// in-flight miss, in issue order (nil when none).
func (p *Private) FarDeferredView(line uint64) []WaiterSnap {
	ws := p.farDeferred[line]
	if len(ws) == 0 {
		return nil
	}
	return snapWaiters(ws)
}

// LevelStates returns the coherence state of the line's L1 and L2
// copies separately (StateI when absent), without touching LRU state.
// The model checker's canonical encoding distinguishes placement
// because install and commit take different paths for L1- and
// L2-resident lines.
func (p *Private) LevelStates(line uint64) (l1, l2 uint8) {
	l1, l2 = StateI, StateI
	if l := p.l1.Peek(line); l != nil {
		l1 = l.Meta
	}
	if l := p.l2.Peek(line); l != nil {
		l2 = l.Meta
	}
	return l1, l2
}

// EarliestPipelineEvent reports the cycle of the earliest pending
// pipeline event (lookup completion or deferred miss); ok is false
// when the pipeline is empty. The model checker advances its clock to
// exactly this point between choice-point transitions. (The event
// scheduler's contract, which also folds in the forced-release sweep,
// is NextEventAt in private.go.)
func (p *Private) EarliestPipelineEvent() (uint64, bool) {
	if len(p.events) == 0 {
		return 0, false
	}
	return p.events[0].at, true
}

// DeliverOne processes a single protocol message (choice-mode
// delivery: the checker extracts one message from the network and
// hands it over directly).
func (p *Private) DeliverOne(m *coherence.Msg) {
	if p.handle(m) {
		p.pool.Put(m)
	}
}

// DisableForcedRelease turns off the time-based forced-release sweep
// in Tick. The model checker abstracts the release timeout into an
// explicit last-resort transition (BreakStall): firing it on a wall of
// simulated time would make reachability depend on an arbitrary
// constant, while enabling it only when nothing else can run models
// exactly the progress guarantee the timeout provides.
func (p *Private) DisableForcedRelease() { p.noForcedRelease = true }

// BreakStall forcibly releases the lock stalling an external request
// on the line and serves that request, exactly like the forced-release
// sweep in Tick but without the age threshold. It reports false when
// no external request is stalled on the line or the client declined
// the release.
func (p *Private) BreakStall(line uint64) bool {
	s := p.stalled.get(line)
	if s == nil {
		return false
	}
	if !p.client.ForceRelease(line) {
		return false
	}
	p.Stats.ForcedRel.Inc()
	p.work++
	m := s.msg
	p.stalled.remove(line)
	p.serveExternal(m)
	p.pool.Put(m)
	return true
}
