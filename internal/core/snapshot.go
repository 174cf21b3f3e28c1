package core

import (
	"fmt"

	"rowsim/internal/predictor"
	"rowsim/internal/sram"
	"rowsim/internal/trace"
)

// Snapshot/Restore for the out-of-order core: the checkpoint half that
// rowcheck never needed (the model checker drives tiny hand-rolled
// programs, not the full pipeline). A snapshot deep-copies every field
// that evolves during a run.
//
// Two rules keep restored runs byte-identical to uninterrupted ones:
//
//   - Ring buffers (ROB, LQ, SB, AQ, execution wheel) are serialized in
//     full, dead slots included. A dead ROB slot still carries its token
//     counter, which dispatch reads to invalidate stale wheel events —
//     dropping dead slots would fork the token sequence. The entry
//     records tag every field omitempty: an omitted field decodes to
//     its zero value, so the encoding stays exact while a dead slot
//     costs only its non-zero fields.
//   - Instruction pointers are serialized as program indexes. The trace
//     is a pure function of (params, cores, instrs, seed), so the caller
//     regenerates it and Restore rebinds in = &prog[pi]; the checkpoint
//     never stores the trace itself.
//
// Construction-time state (config, robMask, l1iLineMask, the attached
// cache and error sink) is rebuilt by core.New and excluded.

// DepRef is the exported view of one dependence edge.
type DepRef struct {
	Slot uint32 `json:"slot"`
	ID   uint64 `json:"id"`
}

// ROBEntrySnap is the exported view of one reorder-buffer slot. In is
// represented by Pi, the program index (-1 when the slot never held an
// instruction).
type ROBEntrySnap struct {
	Valid bool   `json:"valid,omitempty"`
	ID    uint64 `json:"id,omitempty"`
	Pi    int32  `json:"pi,omitempty"`
	St    uint8  `json:"st,omitempty"`

	SrcPending int8     `json:"src_pending,omitempty"`
	Token      uint16   `json:"token,omitempty"`
	Deps       []DepRef `json:"deps,omitempty"`

	DispatchAt uint64 `json:"dispatch_at,omitempty"`
	CompleteAt uint64 `json:"complete_at,omitempty"`

	Line      uint64 `json:"line,omitempty"`
	AddrReady bool   `json:"addr_ready,omitempty"`
	LQ        int64  `json:"lq,omitempty"`
	SB        int64  `json:"sb,omitempty"`
	AQ        int64  `json:"aq,omitempty"`

	WaitStoreID uint64 `json:"wait_store_id,omitempty"`
	Mispred     bool   `json:"mispred,omitempty"`
	ValueReady  bool   `json:"value_ready,omitempty"`

	Lazy          bool   `json:"lazy,omitempty"`
	PredContended bool   `json:"pred_contended,omitempty"`
	AddrCalcDone  bool   `json:"addr_calc_done,omitempty"`
	Locked        bool   `json:"locked,omitempty"`
	LockAt        uint64 `json:"lock_at,omitempty"`
	LockIssueAt   uint64 `json:"lock_issue_at,omitempty"`
}

// SBEntrySnap is the exported view of one store-buffer slot.
type SBEntrySnap struct {
	ID        uint64 `json:"id,omitempty"`
	Slot      uint32 `json:"slot,omitempty"`
	Line      uint64 `json:"line,omitempty"`
	AddrReady bool   `json:"addr_ready,omitempty"`
	Committed bool   `json:"committed,omitempty"`
	IsAtomic  bool   `json:"is_atomic,omitempty"`
	NoWrite   bool   `json:"no_write,omitempty"`
}

// LQEntrySnap is the exported view of one load-queue slot.
type LQEntrySnap struct {
	ID       uint64 `json:"id,omitempty"`
	Slot     uint32 `json:"slot,omitempty"`
	Line     uint64 `json:"line,omitempty"`
	HasLine  bool   `json:"has_line,omitempty"`
	IsAtomic bool   `json:"is_atomic,omitempty"`
	Done     bool   `json:"done,omitempty"`
}

// AQEntrySnap is the exported view of one Atomic Queue slot.
type AQEntrySnap struct {
	ID        uint64 `json:"id,omitempty"`
	Slot      uint32 `json:"slot,omitempty"`
	PC        uint64 `json:"pc,omitempty"`
	Line      uint64 `json:"line,omitempty"`
	HasAddr   bool   `json:"has_addr,omitempty"`
	Locked    bool   `json:"locked,omitempty"`
	Contended bool   `json:"contended,omitempty"`
	IssuedAt  uint64 `json:"issued_at,omitempty"`
	LockAt    uint64 `json:"lock_at,omitempty"`

	PredContended bool `json:"pred_contended,omitempty"`
	Trainable     bool `json:"trainable,omitempty"`
}

// WheelEventSnap is the exported view of one scheduled completion.
type WheelEventSnap struct {
	Slot  uint32 `json:"slot"`
	ID    uint64 `json:"id"`
	Token uint16 `json:"token"`
	Kind  uint8  `json:"kind"`
}

// CoreSnap is a deep copy of the core's mutable state.
type CoreSnap struct {
	FetchIdx    int    `json:"fetch_idx"`
	FetchHoldBy uint64 `json:"fetch_hold_by"`
	FetchFreeAt uint64 `json:"fetch_free_at"`

	Now    uint64 `json:"now"`
	NextID uint64 `json:"next_id"`

	ROB     []ROBEntrySnap `json:"rob"`
	ROBHead int64          `json:"rob_head"`
	ROBTail int64          `json:"rob_tail"`

	LQ     []LQEntrySnap `json:"lq"`
	LQHead int64         `json:"lq_head"`
	LQTail int64         `json:"lq_tail"`
	SB     []SBEntrySnap `json:"sb"`
	SBHead int64         `json:"sb_head"`
	SBTail int64         `json:"sb_tail"`
	AQ     []AQEntrySnap `json:"aq"`
	AQHead int64         `json:"aq_head"`
	AQTail int64         `json:"aq_tail"`

	Rename []DepRef `json:"rename"`

	ReadyQ       []DepRef `json:"ready_q"`
	LazyWait     []DepRef `json:"lazy_wait"`
	StoreBlocked []DepRef `json:"store_blocked"`
	FenceBlocked []DepRef `json:"fence_blocked"`
	LockWait     []DepRef `json:"lock_wait"`
	OrderWait    []DepRef `json:"order_wait"`
	FenceIDs     []uint64 `json:"fence_ids"`

	Wheel [][]WheelEventSnap `json:"wheel"`

	BP predictor.BranchSnap      `json:"bp"`
	SS predictor.StoreSetSnap    `json:"ss"`
	CP *predictor.ContentionSnap `json:"cp,omitempty"` // nil unless policy RoW

	L1I         sram.Snap `json:"l1i"`
	L1ILastLine uint64    `json:"l1i_last_line"`
	L1IMisses   uint64    `json:"l1i_misses"`

	MemPortsUsed int    `json:"mem_ports_used"`
	DrainBusy    bool   `json:"drain_busy"`
	Work         uint64 `json:"work"`
	Done         bool   `json:"done"`
	FinishedAt   uint64 `json:"finished_at"`

	Stats Stats `json:"stats"`
}

func snapDeps(ds []depRef) []DepRef {
	out := make([]DepRef, 0, len(ds))
	for _, d := range ds {
		out = append(out, DepRef{Slot: d.slot, ID: d.id})
	}
	return out
}

func restoreDeps(ds []DepRef) []depRef {
	var out []depRef
	for _, d := range ds {
		out = append(out, depRef{slot: d.Slot, id: d.ID})
	}
	return out
}

// Snapshot captures the core's full pipeline state. It returns a
// pointer so the ~900-byte snapshot is built once and handed around by
// reference (the duffcopy of passing it by value showed up in profiles).
func (c *Core) Snapshot() *CoreSnap {
	s := &CoreSnap{
		FetchIdx:     c.fetchIdx,
		FetchHoldBy:  c.fetchHoldBy,
		FetchFreeAt:  c.fetchFreeAt,
		Now:          c.now,
		NextID:       c.nextID,
		ROBHead:      c.robHead,
		ROBTail:      c.robTail,
		LQHead:       c.lqHead,
		LQTail:       c.lqTail,
		SBHead:       c.sbHead,
		SBTail:       c.sbTail,
		AQHead:       c.aqHead,
		AQTail:       c.aqTail,
		ReadyQ:       snapDeps(c.readyQ),
		LazyWait:     snapDeps(c.lazyWait),
		StoreBlocked: snapDeps(c.storeBlocked),
		FenceBlocked: snapDeps(c.fenceBlocked),
		LockWait:     snapDeps(c.lockWait),
		OrderWait:    snapDeps(c.orderWait),
		FenceIDs:     append([]uint64(nil), c.fenceIDs...),
		BP:           c.bp.Snapshot(),
		SS:           c.ss.Snapshot(),
		L1I:          c.l1i.Snapshot(),
		L1ILastLine:  c.l1iLastLine,
		L1IMisses:    c.l1iMisses,
		MemPortsUsed: c.memPortsUsed,
		DrainBusy:    c.drainBusy,
		Work:         c.work,
		Done:         c.done,
		FinishedAt:   c.finishedAt,
		Stats:        c.Stats,
	}
	s.Stats.LockHold = c.Stats.LockHold.Clone()
	if c.cp != nil {
		cp := c.cp.Snapshot()
		s.CP = &cp
	}
	s.Rename = make([]DepRef, trace.NumRegs)
	for i, r := range c.rename {
		s.Rename[i] = DepRef{Slot: r.slot, ID: r.id}
	}
	s.ROB = make([]ROBEntrySnap, len(c.rob))
	for i := range c.rob {
		e := &c.rob[i]
		pi := int32(-1)
		if e.in != nil {
			pi = e.pi
		}
		s.ROB[i] = ROBEntrySnap{
			Valid: e.valid, ID: e.id, Pi: pi, St: uint8(e.st),
			SrcPending: e.srcPending, Token: e.token, Deps: snapDeps(e.deps),
			DispatchAt: e.dispatchAt, CompleteAt: e.completeAt,
			Line: e.line, AddrReady: e.addrReady, LQ: e.lq, SB: e.sb, AQ: e.aq,
			WaitStoreID: e.waitStoreID, Mispred: e.mispred, ValueReady: e.valueReady,
			Lazy: e.lazy, PredContended: e.predContended, AddrCalcDone: e.addrCalcDone,
			Locked: e.locked, LockAt: e.lockAt, LockIssueAt: e.lockIssueAt,
		}
	}
	s.LQ = make([]LQEntrySnap, len(c.lq))
	for i, e := range c.lq {
		s.LQ[i] = LQEntrySnap{ID: e.id, Slot: e.slot, Line: e.line, HasLine: e.hasLine, IsAtomic: e.isAtomic, Done: e.done}
	}
	s.SB = make([]SBEntrySnap, len(c.sb))
	for i, e := range c.sb {
		s.SB[i] = SBEntrySnap{ID: e.id, Slot: e.slot, Line: e.line, AddrReady: e.addrReady, Committed: e.committed, IsAtomic: e.isAtomic, NoWrite: e.noWrite}
	}
	s.AQ = make([]AQEntrySnap, len(c.aq))
	for i, e := range c.aq {
		s.AQ[i] = AQEntrySnap{
			ID: e.id, Slot: e.slot, PC: e.pc, Line: e.line, HasAddr: e.hasAddr,
			Locked: e.locked, Contended: e.contended, IssuedAt: e.issuedAt, LockAt: e.lockAt,
			PredContended: e.predContended, Trainable: e.trainable,
		}
	}
	s.Wheel = make([][]WheelEventSnap, len(c.wheel))
	for b, evs := range c.wheel {
		for _, ev := range evs {
			s.Wheel[b] = append(s.Wheel[b], WheelEventSnap{Slot: ev.slot, ID: ev.id, Token: ev.token, Kind: ev.kind})
		}
	}
	return s
}

// CheckSnap reports whether s fits this core: ring, rename-table and
// wheel sizes must match, and the L1I snapshot must fit the array.
// Restore panics on a snapshot CheckSnap rejects, so callers restoring
// untrusted data (checkpoints) call it first.
func (c *Core) CheckSnap(s *CoreSnap) error {
	if len(s.ROB) != len(c.rob) || len(s.LQ) != len(c.lq) || len(s.SB) != len(c.sb) || len(s.AQ) != len(c.aq) {
		return fmt.Errorf("core %d: snapshot rings rob=%d lq=%d sb=%d aq=%d do not match core rob=%d lq=%d sb=%d aq=%d",
			c.id, len(s.ROB), len(s.LQ), len(s.SB), len(s.AQ), len(c.rob), len(c.lq), len(c.sb), len(c.aq))
	}
	if len(s.Rename) != trace.NumRegs || len(s.Wheel) != len(c.wheel) {
		return fmt.Errorf("core %d: snapshot rename=%d wheel=%d do not match core rename=%d wheel=%d",
			c.id, len(s.Rename), len(s.Wheel), trace.NumRegs, len(c.wheel))
	}
	if err := c.l1i.CheckSnap(&s.L1I); err != nil {
		return fmt.Errorf("core %d: l1i: %w", c.id, err)
	}
	return nil
}

// Restore rewinds the core to a previously captured CoreSnap. The core
// must have been built by core.New with the same configuration and the
// same (regenerated) program — instruction pointers are rebound to
// prog by the serialized program indexes.
func (c *Core) Restore(s *CoreSnap) {
	if err := c.CheckSnap(s); err != nil {
		panic(err)
	}
	c.fetchIdx = s.FetchIdx
	c.fetchHoldBy = s.FetchHoldBy
	c.fetchFreeAt = s.FetchFreeAt
	c.now = s.Now
	c.nextID = s.NextID
	c.robHead, c.robTail = s.ROBHead, s.ROBTail
	c.lqHead, c.lqTail = s.LQHead, s.LQTail
	c.sbHead, c.sbTail = s.SBHead, s.SBTail
	c.aqHead, c.aqTail = s.AQHead, s.AQTail
	for i := range c.rename {
		c.rename[i] = depRef{slot: s.Rename[i].Slot, id: s.Rename[i].ID}
	}
	c.readyQ = restoreDeps(s.ReadyQ)
	c.lazyWait = restoreDeps(s.LazyWait)
	c.storeBlocked = restoreDeps(s.StoreBlocked)
	c.fenceBlocked = restoreDeps(s.FenceBlocked)
	c.lockWait = restoreDeps(s.LockWait)
	c.orderWait = restoreDeps(s.OrderWait)
	c.fenceIDs = append(c.fenceIDs[:0], s.FenceIDs...)
	c.bp.Restore(s.BP)
	c.ss.Restore(s.SS)
	if c.cp != nil && s.CP != nil {
		c.cp.Restore(*s.CP)
	}
	c.l1i.Restore(s.L1I)
	c.l1iLastLine = s.L1ILastLine
	c.l1iMisses = s.L1IMisses
	c.memPortsUsed = s.MemPortsUsed
	c.drainBusy = s.DrainBusy
	c.work = s.Work
	c.done = s.Done
	c.finishedAt = s.FinishedAt
	c.Stats = s.Stats //rowlint:ignore bigcopy restore rewinds the whole stats block once per resume, off the visit path
	c.Stats.LockHold = s.Stats.LockHold.Clone()

	for i := range c.rob {
		e := &s.ROB[i]
		var in *trace.Instr
		if e.Pi >= 0 && int(e.Pi) < len(c.prog) {
			in = &c.prog[e.Pi]
		}
		c.rob[i] = robEntry{
			valid: e.Valid, id: e.ID, pi: e.Pi, in: in, st: state(e.St),
			srcPending: e.SrcPending, token: e.Token, deps: restoreDeps(e.Deps),
			dispatchAt: e.DispatchAt, completeAt: e.CompleteAt,
			line: e.Line, addrReady: e.AddrReady, lq: e.LQ, sb: e.SB, aq: e.AQ,
			waitStoreID: e.WaitStoreID, mispred: e.Mispred, valueReady: e.ValueReady,
			lazy: e.Lazy, predContended: e.PredContended, addrCalcDone: e.AddrCalcDone,
			locked: e.Locked, lockAt: e.LockAt, lockIssueAt: e.LockIssueAt,
		}
	}
	for i, e := range s.LQ {
		c.lq[i] = lqEntry{id: e.ID, slot: e.Slot, line: e.Line, hasLine: e.HasLine, isAtomic: e.IsAtomic, done: e.Done}
	}
	for i, e := range s.SB {
		c.sb[i] = sbEntry{id: e.ID, slot: e.Slot, line: e.Line, addrReady: e.AddrReady, committed: e.Committed, isAtomic: e.IsAtomic, noWrite: e.NoWrite}
	}
	for i, e := range s.AQ {
		c.aq[i] = aqEntry{
			id: e.ID, slot: e.Slot, pc: e.PC, line: e.Line, hasAddr: e.HasAddr,
			locked: e.Locked, contended: e.Contended, issuedAt: e.IssuedAt, lockAt: e.LockAt,
			predContended: e.PredContended, trainable: e.Trainable,
		}
	}
	for b := range c.wheel {
		c.wheel[b] = c.wheel[b][:0]
		for _, ev := range s.Wheel[b] {
			c.wheel[b] = append(c.wheel[b], wheelEvent{slot: ev.Slot, id: ev.ID, token: ev.Token, kind: ev.Kind})
		}
	}
}
