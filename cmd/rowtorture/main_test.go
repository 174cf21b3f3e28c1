package main

import (
	"testing"

	"rowsim/internal/lifecycle"
)

// TestRekeyCycleLoopRuns: a journal written by a cycle-loop sweep keyed
// its runs with a trailing scheduler flag. Rekeying maps them onto the
// current repro lines, and a record a later resume wrote under the
// current key wins over the older suffixed one.
func TestRekeyCycleLoopRuns(t *testing.T) {
	const a = `rowtorture -seed 0x1 -wl cq -variant "Eager" -cores 4 -instrs 1000 -faults "none"`
	const b = `rowtorture -seed 0x2 -wl sps -variant "Lazy" -cores 8 -instrs 2500 -faults "jitter=0.1:8"`
	got := rekeyCycleLoopRuns(map[string]lifecycle.Record{
		a + " -sched cycle": {Key: a + " -sched cycle", Status: lifecycle.StatusOK},
		b + " -sched cycle": {Key: b + " -sched cycle", Status: lifecycle.StatusFailed},
		b:                   {Key: b, Status: lifecycle.StatusOK},
	})
	if len(got) != 2 {
		t.Fatalf("rekeyed to %d runs, want 2: %v", len(got), got)
	}
	if rec, ok := got[a]; !ok || rec.Status != lifecycle.StatusOK {
		t.Errorf("legacy run not rekeyed: %v", got)
	}
	if rec := got[b]; rec.Key != b || rec.Status != lifecycle.StatusOK {
		t.Errorf("newer record under the current key lost to the legacy one: %+v", rec)
	}
}
