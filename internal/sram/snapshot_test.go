package sram

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"rowsim/internal/xrand"
)

// randomOp applies one seeded random operation to a and returns its
// observable result, so two arrays driven by equal RNGs can be
// compared op by op. The geometry used below has 4 sets × 4 ways and
// the line universe is 40 lines, so sets fill, evict and drain.
func randomOp(a *Array, rng *xrand.RNG) string {
	l := line(uint64(rng.Intn(40)))
	meta := uint8(rng.Intn(4))
	switch rng.Intn(6) {
	case 0, 1:
		tag, m, ev := a.Insert(l, meta)
		return fmt.Sprint("insert", tag, m, ev)
	case 2:
		tag, m, ev := a.InsertLRU(l, meta)
		return fmt.Sprint("insertLRU", tag, m, ev)
	case 3:
		vetoed := line(uint64(rng.Intn(40)))
		tag, m, ev, ok := a.InsertVeto(l, meta, func(t uint64) bool { return t == vetoed })
		return fmt.Sprint("insertVeto", tag, m, ev, ok)
	case 4:
		m, present := a.Invalidate(l)
		return fmt.Sprint("invalidate", m, present)
	default:
		got := a.Lookup(l, rng.Intn(2) == 0)
		if got == nil {
			return "lookup miss"
		}
		return fmt.Sprint("lookup", *got)
	}
}

// checkInvalidZero pins the invariant the sparse Snap relies on: an
// invalid line is always the zero Line, so Restore may recreate every
// unrecorded line by clearing.
func checkInvalidZero(t *testing.T, a *Array, step int) {
	t.Helper()
	for i, l := range a.lines {
		if !l.Valid && l != (Line{}) {
			t.Fatalf("step %d: invalid line %d has non-zero fields %+v", step, i, l)
		}
	}
}

func checkSameState(t *testing.T, what string, got, want *Array) {
	t.Helper()
	if !reflect.DeepEqual(got.lines, want.lines) || got.clock != want.clock || got.hits != want.hits || got.misses != want.misses {
		t.Fatalf("%s: restored state differs:\n got clock=%d hits=%d misses=%d lines=%+v\nwant clock=%d hits=%d misses=%d lines=%+v",
			what, got.clock, got.hits, got.misses, got.lines, want.clock, want.hits, want.misses, want.lines)
	}
}

// TestSparseSnapshotProperty drives seeded random operation sequences
// and, at every step, checks the invalid-is-zero invariant and that a
// JSON round-tripped sparse snapshot restores exactly — into a fresh
// array and into a dirty one — with identical behaviour afterwards.
func TestSparseSnapshotProperty(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		a := New(1024, 4, 64)
		dirty := New(1024, 4, 64)
		for step := 0; step < 120; step++ {
			randomOp(a, rng)
			randomOp(dirty, rng)
			checkInvalidZero(t, a, step)

			b, err := json.Marshal(a.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var s Snap
			if err := json.Unmarshal(b, &s); err != nil {
				t.Fatal(err)
			}
			fresh := New(1024, 4, 64)
			fresh.Restore(s)
			checkSameState(t, fmt.Sprintf("seed %d step %d fresh", seed, step), fresh, a)
			dirty.Restore(s)
			checkSameState(t, fmt.Sprintf("seed %d step %d dirty", seed, step), dirty, a)

			if step%20 != 19 {
				continue
			}
			// Continue all three with the same operations: results and
			// final states must agree.
			cont := rng.Uint64()
			ra, rf, rd := xrand.New(cont), xrand.New(cont), xrand.New(cont)
			probe := New(1024, 4, 64)
			probe.Restore(a.Snapshot())
			for k := 0; k < 30; k++ {
				want := randomOp(probe, ra)
				if got := randomOp(fresh, rf); got != want {
					t.Fatalf("seed %d step %d: fresh restore diverged at op %d: %s vs %s", seed, step, k, got, want)
				}
				if got := randomOp(dirty, rd); got != want {
					t.Fatalf("seed %d step %d: dirty restore diverged at op %d: %s vs %s", seed, step, k, got, want)
				}
			}
			checkSameState(t, "after continuation", fresh, probe)
			checkSameState(t, "after continuation", dirty, probe)
		}
	}
}

// TestSnapshotRecordsOnlyValidLines: the snapshot holds one record per
// valid line, in ascending index order.
func TestSnapshotRecordsOnlyValidLines(t *testing.T) {
	a := New(4096, 4, 64) // 64 lines
	for i := uint64(0); i < 10; i++ {
		a.Insert(line(i*3), uint8(i))
	}
	a.Invalidate(line(6))
	s := a.Snapshot()
	if s.Len != 64 || len(s.Lines) != 9 {
		t.Fatalf("snapshot len=%d records=%d, want 64 and 9", s.Len, len(s.Lines))
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckSnapRejects: malformed snapshots are errors from CheckSnap,
// and Restore refuses them before writing anything.
func TestCheckSnapRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Snap
	}{
		{"length mismatch", Snap{Len: 8}},
		{"negative length", Snap{Len: -1}},
		{"index out of range", Snap{Len: 16, Lines: []LineRec{{Idx: 16, Tag: 64}}}},
		{"negative index", Snap{Len: 16, Lines: []LineRec{{Idx: -1, Tag: 64}}}},
		{"duplicate index", Snap{Len: 16, Lines: []LineRec{{Idx: 3, Tag: 64}, {Idx: 3, Tag: 128}}}},
		{"descending index", Snap{Len: 16, Lines: []LineRec{{Idx: 5, Tag: 64}, {Idx: 2, Tag: 128}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New(1024, 4, 64) // 16 lines
			a.Insert(line(1), 2)
			before := append([]Line(nil), a.lines...)
			if err := a.CheckSnap(&tc.s); err == nil {
				t.Fatal("CheckSnap accepted a malformed snapshot")
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Restore did not panic")
					}
				}()
				a.Restore(tc.s)
			}()
			if !reflect.DeepEqual(a.lines, before) {
				t.Fatal("refused Restore modified the array")
			}
		})
	}
}
