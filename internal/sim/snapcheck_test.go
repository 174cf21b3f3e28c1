package sim

import (
	"testing"

	"rowsim/internal/snapcheck"
)

// TestSnapshotCoversEveryField is the snapshot-completeness guard for
// the system: a new System field must either be captured by SysSnap
// (via a component snapshot) or be explained here as derived or
// construction-time state.
func TestSnapshotCoversEveryField(t *testing.T) {
	snapcheck.Assert(t, System{}, []string{
		"mesh", "cores", "caches", "dirs", "pool", "injector",
		"cycle", "visited",
		"lastCkpt", // restored to the snapshot cycle so the cadence continues
	}, map[string]string{
		"cycleLoop":  "construction-time option; deliberately outside the snapshot so a checkpoint restores into either loop",
		"cfg":        "construction-time configuration, part of the checkpoint content key",
		"bankOf":     "pure function of the configuration",
		"sink":       "provably empty at checkpoint instants: RunCtx drains it earlier in the same cold block",
		"warmFilter": "construction-time option, pure function of the workload params",
		"checkEvery": "construction-time option",
		"watchdog":   "construction-time option",
		"crossCheck": "construction-time option",
		"ckptEvery":  "construction-time option (the checkpoint cadence itself)",
		"ckptFn":     "construction-time option (the checkpoint sink itself)",
	})
}
