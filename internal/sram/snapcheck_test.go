package sram

import (
	"reflect"
	"testing"

	"rowsim/internal/snapcheck"
)

// TestSnapshotCoversEveryField is the snapshot-completeness guard for
// the SRAM array and the Line record its sparse snapshot copies.
func TestSnapshotCoversEveryField(t *testing.T) {
	snapcheck.Assert(t, Array{}, []string{
		"lines", "clock", "hits", "misses",
	}, map[string]string{
		"sets":      "construction-time geometry",
		"ways":      "construction-time geometry",
		"lineShift": "construction-time geometry",
	})

	snapcheck.Assert(t, Line{}, []string{
		"Valid", "Tag", "Meta", "LRU",
	}, nil)

	// A LineRec carries every Line field except Valid, which the
	// record's presence implies, plus the line's index in the array.
	snapcheck.Assert(t, LineRec{}, []string{
		"Idx", "Tag", "Meta", "LRU",
	}, nil)
	rec := reflect.TypeOf(LineRec{})
	live := reflect.TypeOf(Line{})
	for i := 0; i < live.NumField(); i++ {
		f := live.Field(i)
		if f.Name == "Valid" {
			continue
		}
		if rf, ok := rec.FieldByName(f.Name); !ok || rf.Type != f.Type {
			t.Errorf("LineRec does not carry Line.%s (%v)", f.Name, f.Type)
		}
	}
}
