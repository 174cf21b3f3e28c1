package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/faults"
	"rowsim/internal/sim"
	"rowsim/internal/sram"
	"rowsim/internal/workload"
)

// TestResumeEndToEnd is the on-disk half of the crash-recovery
// cross-check (the in-memory half lives in internal/sim): for three
// torture-style configurations, a run that checkpoints to disk, is
// "killed", and resumes in a fresh process image finishes with exactly
// the Result of an uninterrupted run — and when the newest checkpoint
// file is corrupted, resume falls back to the previous one and still
// converges to the same end state.
func TestResumeEndToEnd(t *testing.T) {
	cases := []struct {
		name     string
		policy   config.AtomicPolicy
		workload string
		faults   *faults.Config
	}{
		{name: "eager_pc", policy: config.PolicyEager, workload: "pc"},
		{name: "row_sps", policy: config.PolicyRoW, workload: "sps"},
		{name: "row_sps_jitter", policy: config.PolicyRoW, workload: "sps",
			faults: &faults.Config{Seed: 9, JitterProb: 0.3, JitterMax: 12}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := config.Default()
			cfg.NumCores = 2
			cfg.Policy = tc.policy
			cfg.EarlyAddrCalc = tc.policy == config.PolicyRoW
			cfg.MaxCycles = 50_000_000
			p := workload.MustGet(tc.workload)
			// Long enough that every case crosses several checkpoint
			// intervals (rotation needs at least two saves for a .prev).
			const instrs, seed = 6000, 7
			const every = 1024

			build := func(opts ...sim.Option) *sim.System {
				progs := workload.Generate(p, cfg.NumCores, instrs, seed)
				opts = append(opts, sim.WithWarmFilter(workload.WarmFilter(p)))
				if tc.faults != nil {
					opts = append(opts, sim.WithFaults(*tc.faults))
				}
				s, err := sim.New(cfg, progs, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			// Ground truth: one uninterrupted run.
			want, err := build().Run()
			if err != nil {
				t.Fatal(err)
			}

			// Checkpointed run: persist every interval. The run is then
			// "killed" — the system is discarded; only the files remain.
			path := filepath.Join(t.TempDir(), "run.ckpt")
			const key = "resume-e2e"
			ck := build(sim.WithCheckpoint(every, Saver(path, key)))
			if _, err := ck.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("no checkpoint was written: %v", err)
			}

			// Resume in a fresh system from the newest checkpoint.
			s2 := build()
			cyc, ok, err := Resume(s2, path, key)
			if err != nil || !ok {
				t.Fatalf("Resume: ok=%v err=%v", ok, err)
			}
			if cyc == 0 {
				t.Fatal("resumed at cycle 0")
			}
			got, err := s2.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed run diverges from uninterrupted run:\nwant %+v\ngot  %+v", want, got)
			}

			// Corrupt the newest checkpoint: resume must fall back to the
			// previous one and still converge to the same end state.
			if _, err := os.Stat(path + PrevSuffix); err != nil {
				t.Fatalf("no previous checkpoint to fall back to: %v", err)
			}
			if err := os.WriteFile(path, []byte("torn to shreds"), 0o644); err != nil {
				t.Fatal(err)
			}
			s3 := build()
			cyc3, ok, err := Resume(s3, path, key)
			if err != nil || !ok {
				t.Fatalf("fallback Resume: ok=%v err=%v", ok, err)
			}
			if cyc3 >= cyc {
				t.Fatalf("fallback resumed at cycle %d, want earlier than the corrupted primary's %d", cyc3, cyc)
			}
			got3, err := s3.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got3, want) {
				t.Errorf("fallback-resumed run diverges from uninterrupted run:\nwant %+v\ngot  %+v", want, got3)
			}
		})
	}
}

// TestResumeRejectsBadLineIndex: a CRC-valid checkpoint whose SRAM
// snapshot names a line index out of range, or the same index twice,
// is refused by Resume with an error — not a panic — and the system it
// was to be restored into is left exactly as it was.
func TestResumeRejectsBadLineIndex(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(s *sim.SysSnap) *sram.Snap
	}{
		{"l3_out_of_range", func(s *sim.SysSnap) *sram.Snap {
			l3 := &s.Dirs[0].L3
			l3.Lines[len(l3.Lines)-1].Idx = l3.Len
			return l3
		}},
		{"l3_duplicate", func(s *sim.SysSnap) *sram.Snap {
			l3 := &s.Dirs[1].L3
			l3.Lines[1].Idx = l3.Lines[0].Idx
			return l3
		}},
		{"l2_duplicate", func(s *sim.SysSnap) *sram.Snap {
			l2 := &s.Caches[1].L2
			l2.Lines[2].Idx = l2.Lines[1].Idx
			return l2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := realSnap(t)
			if bad := tc.tamper(snap); bad.Check() == nil {
				t.Fatal("tampering left a valid SRAM snapshot")
			}
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := Save(path, "k", snap); err != nil {
				t.Fatal(err)
			}
			s := realSystem(t)
			before := s.Snapshot()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Resume panicked: %v", r)
					}
				}()
				if _, ok, err := Resume(s, path, "k"); err == nil || ok {
					t.Fatalf("Resume accepted a bad line index: ok=%v err=%v", ok, err)
				} else {
					t.Logf("Resume: %v", err)
				}
			}()
			snapEqual(t, s.Snapshot(), before)
		})
	}
}
