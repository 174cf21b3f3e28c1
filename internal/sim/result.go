package sim

import "rowsim/internal/stats"

// Result aggregates the metrics a run produces; the experiments
// package turns these into the paper's figures.
type Result struct {
	// Cycles is the parallel execution time: the cycle at which the
	// last core finished. This is the cycles-advanced count — simulated
	// time is identical under the event loop and the cycle loop.
	Cycles uint64

	// CyclesVisited is the number of cycles the loop actually
	// simulated: usually far smaller than Cycles under the event loop
	// (1 - CyclesVisited/Cycles is the skip efficiency), equal to it
	// under the WithCycleLoop reference. It is the only Result field
	// that legitimately differs between the two loops; compare runs
	// across them with SchedNormalized.
	CyclesVisited uint64

	Committed uint64
	Atomics   uint64 // committed locking atomics
	IPC       float64

	AtomicsPer10K float64
	// ContendedFrac is the fraction of atomics whose contended bit was
	// set at unlock (Fig. 5's red line).
	ContendedFrac float64

	EagerIssued      uint64
	LazyIssued       uint64
	ForwardedAtomics uint64
	PredictedLazy    uint64

	// Fig. 6 latency breakdown (mean cycles per atomic).
	DispatchToIssue float64
	IssueToLock     float64
	LockToUnlock    float64

	// Fig. 4 instrumentation (means per issued atomic).
	OlderUnexecAtEager   float64
	YoungerStartedAtLazy float64

	// MissLatency is the mean L1D demand-miss fill latency over all
	// cores (Fig. 11); P99 is the tail of the same distribution.
	MissLatency    float64
	MissLatencyP99 float64

	// LockHoldP99 is the 99th percentile of lock-window lengths: the
	// convoy tail that eager execution grows under contention.
	LockHoldP99 float64

	// PredAccuracy is the contention predictor accuracy (Fig. 12);
	// zero when the policy is not RoW.
	PredAccuracy float64

	LoadForwards   uint64
	LQSquashes     uint64
	SSViolations   uint64
	ForcedReleases uint64
	Mispredicts    uint64
	Branches       uint64
	ExtStalls      uint64

	NetworkMessages uint64
}

// SchedNormalized returns the result with the scheduler-dependent
// bookkeeping zeroed: two runs of the same workload must compare equal
// under it whether they ran the event loop or the cycle loop.
func (r Result) SchedNormalized() Result {
	r.CyclesVisited = 0
	return r //rowlint:ignore bigcopy per-run result value, built once at run exit
}

func (s *System) collect() Result {
	var r Result
	r.Cycles = s.cycle
	r.CyclesVisited = s.visited

	var d2i, i2l, l2u struct{ sum, n float64 }
	var older, younger struct{ sum, n float64 }
	var miss struct{ sum, n float64 }
	var predTotal, predCorrectWeighted float64
	missHist := stats.NewHistogram(1 << 16)
	lockHist := stats.NewHistogram(1 << 16)

	for i, c := range s.cores {
		st := &c.Stats
		r.Committed += st.Committed
		r.Atomics += st.Atomics
		r.EagerIssued += st.EagerIssued
		r.LazyIssued += st.LazyIssued
		r.ForwardedAtomics += st.ForwardedAtomics
		r.PredictedLazy += st.PredictedLazy
		r.LoadForwards += st.LoadForwards
		r.LQSquashes += st.LQSquashes
		r.SSViolations += st.SSViolations
		r.ForcedReleases += st.ForcedReleases
		r.Mispredicts += st.Mispredicts
		r.Branches += st.Branches

		d2i.sum += st.DispatchToIssue.Sum()
		d2i.n += float64(st.DispatchToIssue.Count())
		i2l.sum += st.IssueToLock.Sum()
		i2l.n += float64(st.IssueToLock.Count())
		l2u.sum += st.LockToUnlock.Sum()
		l2u.n += float64(st.LockToUnlock.Count())
		older.sum += st.OlderUnexecAtEager.Sum()
		older.n += float64(st.OlderUnexecAtEager.Count())
		younger.sum += st.YoungerStartedAtLazy.Sum()
		younger.n += float64(st.YoungerStartedAtLazy.Count())

		pc := s.caches[i]
		miss.sum += pc.Stats.MissLatency.Sum()
		miss.n += float64(pc.Stats.MissLatency.Count())
		missHist.Merge(pc.Stats.MissHist)
		lockHist.Merge(st.LockHold)
		r.ExtStalls += pc.Stats.ExtStalls.Value()

		if cp := c.ContentionPredictor(); cp != nil && cp.Predictions() > 0 {
			predTotal += float64(cp.Predictions())
			predCorrectWeighted += cp.Accuracy() * float64(cp.Predictions())
		}
	}
	var contendedTotal uint64
	for _, c := range s.cores {
		contendedTotal += c.Stats.ContendedAtomics
	}
	if r.Atomics > 0 {
		r.ContendedFrac = float64(contendedTotal) / float64(r.Atomics)
	}
	if r.Committed > 0 {
		r.AtomicsPer10K = float64(r.Atomics) / float64(r.Committed) * 10000
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Committed) / float64(r.Cycles)
	}
	if d2i.n > 0 {
		r.DispatchToIssue = d2i.sum / d2i.n
	}
	if i2l.n > 0 {
		r.IssueToLock = i2l.sum / i2l.n
	}
	if l2u.n > 0 {
		r.LockToUnlock = l2u.sum / l2u.n
	}
	if older.n > 0 {
		r.OlderUnexecAtEager = older.sum / older.n
	}
	if younger.n > 0 {
		r.YoungerStartedAtLazy = younger.sum / younger.n
	}
	if miss.n > 0 {
		r.MissLatency = miss.sum / miss.n
	}
	r.MissLatencyP99 = missHist.Quantile(0.99)
	r.LockHoldP99 = lockHist.Quantile(0.99)
	if predTotal > 0 {
		r.PredAccuracy = predCorrectWeighted / predTotal
	}
	r.NetworkMessages = s.mesh.Messages()
	return r //rowlint:ignore bigcopy per-run result value, built once at run exit
}
