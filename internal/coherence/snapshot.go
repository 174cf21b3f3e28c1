package coherence

import (
	"fmt"
	"sort"

	"rowsim/internal/sram"
)

// This file is the directory's half of the snapshot/restore interface
// the model checker (internal/mcheck) drives: the checker explores the
// protocol state space by DFS, capturing every component before a
// branch and rewinding it afterwards. Snapshots deep-copy retained
// messages by value — the MsgPool ownership discipline guarantees a
// retained *Msg has exactly one owner, so restoring fresh copies can
// never alias a live message.

// PoolSnap captures the MsgPool's accounting counters. The free list
// itself is not part of protocol state (its members are, by
// definition, unreferenced), so only gets/puts — which define
// Outstanding, the conserved quantity — are rewound.
type PoolSnap struct {
	Gets, Puts int64
}

// Snapshot captures the pool counters.
func (p *MsgPool) Snapshot() PoolSnap {
	if p == nil {
		return PoolSnap{}
	}
	return PoolSnap{Gets: p.gets, Puts: p.puts}
}

// Restore rewinds the accounting counters. Messages handed out since
// the snapshot die with the component states that referenced them;
// messages on the free list stay recyclable (they are zeroed and
// unreferenced, so reuse is safe in either history).
func (p *MsgPool) Restore(s PoolSnap) {
	if p == nil {
		return
	}
	p.gets = s.Gets
	p.puts = s.Puts
}

// DirPending mirrors the directory's in-flight transaction context
// with exported fields.
type DirPending struct {
	Requestor int  `json:",omitempty"`
	IsWrite   bool `json:",omitempty"`
	Far       bool `json:",omitempty"`
	FarAcks   int  `json:",omitempty"`
	FarData   bool `json:",omitempty"`
}

// DirEntrySnap is the exported view of one directory entry. The model
// checker also uses it (via EntryView) as the canonical encoding of a
// bank's per-line state. Zero fields are omitted from the encoding and
// decode back to zero; Pend, a struct, always encodes (as {} when idle).
type DirEntrySnap struct {
	State   uint8  `json:",omitempty"`
	Owner   int    `json:",omitempty"`
	Sharers uint64 `json:",omitempty"`
	Blocked bool   `json:",omitempty"`
	Pend    DirPending
	Waiting []Msg `json:",omitempty"` // queued requests, FIFO, copied by value
}

// DirSnap is a deep copy of one bank's mutable protocol state. Stats
// ride along so a checkpointed run restores to byte-identical counters
// (they never feed back into protocol decisions, but they do reach the
// final Result).
type DirSnap struct {
	Now   uint64
	Lines map[uint64]DirEntrySnap
	L3    sram.Snap
	Stats DirStats
}

func (e *dirEntry) snap() DirEntrySnap {
	s := DirEntrySnap{
		State:   uint8(e.state),
		Owner:   e.owner,
		Sharers: e.sharers,
		Blocked: e.blocked,
		Pend: DirPending{
			Requestor: e.pend.requestor,
			IsWrite:   e.pend.isWrite,
			Far:       e.pend.far,
			FarAcks:   e.pend.farAcks,
			FarData:   e.pend.farData,
		},
	}
	for _, m := range e.waiting {
		s.Waiting = append(s.Waiting, *m)
	}
	return s
}

// Snapshot captures the bank's directory entries and L3 contents. It
// returns a pointer so the snapshot is handed around by reference
// rather than bulk-copied.
func (d *Directory) Snapshot() *DirSnap {
	s := &DirSnap{Now: d.now, Lines: make(map[uint64]DirEntrySnap, len(d.lines)), L3: d.l3.Snapshot(), Stats: d.Stats}
	//rowlint:ignore maporder building a map from a map; per-key copies are order-independent
	for line, e := range d.lines {
		s.Lines[line] = e.snap()
	}
	return s
}

// CheckSnap reports whether s fits this bank: its L3 snapshot must fit
// the array. Restore panics on a snapshot CheckSnap rejects, so callers
// restoring untrusted data (checkpoints) call it first.
func (d *Directory) CheckSnap(s *DirSnap) error {
	if err := d.l3.CheckSnap(&s.L3); err != nil {
		return fmt.Errorf("directory bank %d: l3: %w", d.bank, err)
	}
	return nil
}

// Restore rewinds the bank to a previously captured DirSnap. Waiting
// messages are reconstituted as fresh allocations (never drawn from
// the pool: the pool counters are restored separately and a pool Get
// here would double-count the retained population).
func (d *Directory) Restore(s *DirSnap) {
	d.now = s.Now
	d.Stats = s.Stats
	d.lines = make(map[uint64]*dirEntry, len(s.Lines))
	//rowlint:ignore maporder rebuilding a map from a map; per-key copies are order-independent
	for line, es := range s.Lines {
		e := &dirEntry{
			state:   dirState(es.State),
			owner:   es.Owner,
			sharers: es.Sharers,
			blocked: es.Blocked,
			pend: pending{
				requestor: es.Pend.Requestor,
				isWrite:   es.Pend.IsWrite,
				far:       es.Pend.Far,
				farAcks:   es.Pend.FarAcks,
				farData:   es.Pend.FarData,
			},
		}
		for i := range es.Waiting {
			m := new(Msg)
			*m = es.Waiting[i]
			e.waiting = append(e.waiting, m)
		}
		d.lines[line] = e
	}
	d.l3.Restore(s.L3)
}

// EntryView returns the exported view of one line's directory entry,
// with the waiting queue copied by value; ok is false when the bank
// has never seen the line (equivalent to an unblocked dirI entry).
// The model checker encodes bank state from this view.
func (d *Directory) EntryView(line uint64) (DirEntrySnap, bool) {
	e, ok := d.lines[line]
	if !ok {
		return DirEntrySnap{Owner: -1}, false
	}
	return e.snap(), true
}

// LinesKnown returns the line addresses the bank has entries for, in
// ascending order (deterministic iteration for checkers).
func (d *Directory) LinesKnown() []uint64 {
	out := make([]uint64, 0, len(d.lines))
	for line := range d.lines {
		out = append(out, line)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
