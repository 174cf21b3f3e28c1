package sram

import "fmt"

// Snap is a sparse copy of an Array's mutable state: the array length,
// one record per valid line in ascending index order, the LRU clock and
// the stats. Invalid lines are not recorded. Invalidate resets a line
// to the zero Line and no other operation leaves an invalid line with a
// non-zero field, so Restore recreates every invalid line by clearing
// the array. A snapshot therefore costs in proportion to the resident
// lines (under 2% of a warmed 8-core L3), not to the array size.
//
// The model checker (internal/mcheck) captures one per array before
// exploring a branch and restores it when backtracking; checkpoints
// serialize it to disk, which is why every field is exported. The
// geometry (sets, ways, line shift) is construction-time state and is
// not copied; a Snap may only be restored into the array it was taken
// from, or one built with identical geometry. CheckSnap verifies the
// length and the record indexes, not the geometry.
type Snap struct {
	Len    int       `json:"len"`
	Lines  []LineRec `json:"lines"`
	Clock  uint64    `json:"clock"`
	Hits   uint64    `json:"hits"`
	Misses uint64    `json:"misses"`
}

// LineRec is one valid line of a Snap: its index in the array and its
// Line fields other than Valid, which every record implies.
type LineRec struct {
	Idx  int    `json:"i"`
	Tag  uint64 `json:"tag"`
	Meta uint8  `json:"meta,omitempty"`
	LRU  uint64 `json:"lru,omitempty"`
}

// Snapshot captures the array's valid lines, LRU clock and stats.
func (a *Array) Snapshot() Snap {
	s := Snap{Len: len(a.lines), Clock: a.clock, Hits: a.hits, Misses: a.misses}
	for i := range a.lines {
		if l := &a.lines[i]; l.Valid {
			s.Lines = append(s.Lines, LineRec{Idx: i, Tag: l.Tag, Meta: l.Meta, LRU: l.LRU})
		}
	}
	return s
}

// Check validates the snapshot on its own, without an array: every
// record index lies in [0, Len) and the indexes strictly ascend, so no
// line is recorded twice.
func (s *Snap) Check() error {
	if s.Len < 0 {
		return fmt.Errorf("sram: snapshot length %d is negative", s.Len)
	}
	prev := -1
	for _, r := range s.Lines {
		if r.Idx < 0 || r.Idx >= s.Len {
			return fmt.Errorf("sram: snapshot line index %d outside [0, %d)", r.Idx, s.Len)
		}
		if r.Idx <= prev {
			return fmt.Errorf("sram: snapshot line index %d after %d: indexes must strictly ascend", r.Idx, prev)
		}
		prev = r.Idx
	}
	return nil
}

// CheckSnap reports whether s can be restored into the array: it must
// pass Check and have been taken from an array of the same length.
func (a *Array) CheckSnap(s *Snap) error {
	if s.Len != len(a.lines) {
		return fmt.Errorf("sram: snapshot of %d lines does not fit an array of %d", s.Len, len(a.lines))
	}
	return s.Check()
}

// Restore rewinds the array to a previously captured Snap. It panics
// on a snapshot CheckSnap rejects; callers restoring untrusted data
// (checkpoints) call CheckSnap first.
func (a *Array) Restore(s Snap) {
	if err := a.CheckSnap(&s); err != nil {
		panic(err)
	}
	clear(a.lines)
	for _, r := range s.Lines {
		a.lines[r.Idx] = Line{Valid: true, Tag: r.Tag, Meta: r.Meta, LRU: r.LRU}
	}
	a.clock = s.Clock
	a.hits = s.Hits
	a.misses = s.Misses
}
