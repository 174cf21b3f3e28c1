package checkpoint

import (
	"errors"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

// errStop ends a run once the wanted checkpoint has been captured.
var errStop = errors.New("captured")

// TestCheckpointSizeBound pins the cost of a checkpoint to live state:
// a warmed default-geometry 8-core system holds about 2% of its L3
// lines and 8% of its L2 lines, and a mid-run checkpoint must encode
// in under 8 MB. Storing every line of every array (as format version
// 1 did) takes about 31 MB and fails here. The encoding is
// deterministic, so the bound does not depend on the host.
func TestCheckpointSizeBound(t *testing.T) {
	const limit = 8 << 20
	cfg := config.Default()
	cfg.NumCores = 8
	cfg.Policy = config.PolicyRoW
	cfg.EarlyAddrCalc = true
	cfg.MaxCycles = 50_000_000
	p := workload.MustGet("sps")
	var snap *sim.SysSnap
	s, err := sim.New(cfg, workload.Generate(p, cfg.NumCores, 4000, 13),
		sim.WithWarmFilter(workload.WarmFilter(p)),
		sim.WithCheckpoint(2048, func(cycle uint64, sn *sim.SysSnap) error {
			if cycle < 4096 {
				return nil
			}
			snap = sn
			return errStop
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); !errors.Is(err, errStop) {
		t.Fatalf("run did not reach the cycle-4096 checkpoint: %v", err)
	}
	data, err := Encode("size", snap)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("checkpoint at cycle %d: %d bytes", snap.Cycle, len(data))
	if len(data) >= limit {
		t.Fatalf("checkpoint at cycle %d is %d bytes, want under %d: a dense encoding is back", snap.Cycle, len(data), limit)
	}
}
