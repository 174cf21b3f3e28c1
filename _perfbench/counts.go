package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"rowsim/internal/sim"
)

// counts are the deterministic per-layer work counts of one cell (or
// a sum over cells), read from the Result and the exported Stats of
// System.Cores/Caches/Directories after the run. A change that only
// speeds the simulator up must leave every one of them equal.
type counts struct {
	Cycles        uint64 `json:"cycles"`
	CyclesVisited uint64 `json:"cycles_visited"`

	Committed      uint64 `json:"committed"`
	Atomics        uint64 `json:"atomics"`
	EagerIssued    uint64 `json:"eager_issued"`
	LazyIssued     uint64 `json:"lazy_issued"`
	LQSquashes     uint64 `json:"lq_squashes"`
	SSViolations   uint64 `json:"ss_violations"`
	ForcedReleases uint64 `json:"forced_releases"`

	Accesses   uint64 `json:"accesses"`
	L1Hits     uint64 `json:"l1_hits"`
	Misses     uint64 `json:"misses"`
	MSHRFull   uint64 `json:"mshr_full"`
	ExtStalls  uint64 `json:"ext_stalls"`
	Prefetches uint64 `json:"prefetches"`

	GetS          uint64  `json:"gets"`
	GetX          uint64  `json:"getx"`
	Stalled       uint64  `json:"stalled"`
	StallDepthSum float64 `json:"stall_depth_sum"`
	StallDepthN   uint64  `json:"stall_depth_n"`
	L3Misses      uint64  `json:"l3_misses"`
	Forwards      uint64  `json:"forwards"`
	Invalidates   uint64  `json:"invalidates"`

	Messages uint64 `json:"messages"`

	Predictions    uint64  `json:"predictions"`
	PredCorrectSum float64 `json:"pred_correct_sum"`
	PredictedLazy  uint64  `json:"predicted_lazy"`

	// HopsSum is read from a full system snapshot, so only traced runs
	// fill it; it stays out of the golden digest.
	HopsSum uint64 `json:"-"`
}

func collectCounts(sys *sim.System, r sim.Result) counts {
	c := counts{
		Cycles:         r.Cycles,
		CyclesVisited:  r.CyclesVisited,
		Committed:      r.Committed,
		Atomics:        r.Atomics,
		EagerIssued:    r.EagerIssued,
		LazyIssued:     r.LazyIssued,
		LQSquashes:     r.LQSquashes,
		SSViolations:   r.SSViolations,
		ForcedReleases: r.ForcedReleases,
		Messages:       r.NetworkMessages,
		PredictedLazy:  r.PredictedLazy,
	}
	for _, pc := range sys.Caches() {
		st := &pc.Stats
		c.Accesses += st.Accesses.Value()
		c.L1Hits += st.L1Hits.Value()
		c.Misses += st.Misses.Value()
		c.MSHRFull += st.MSHRFull.Value()
		c.ExtStalls += st.ExtStalls.Value()
		c.Prefetches += st.Prefetches.Value()
	}
	for _, d := range sys.Directories() {
		st := &d.Stats
		c.GetS += st.GetS.Value()
		c.GetX += st.GetX.Value()
		c.Stalled += st.Stalled.Value()
		c.StallDepthSum += st.StallDepth.Sum()
		c.StallDepthN += st.StallDepth.Count()
		c.L3Misses += st.L3Misses.Value()
		c.Forwards += st.Forwards.Value()
		c.Invalidates += st.Invalidates.Value()
	}
	for _, core := range sys.Cores() {
		if cp := core.ContentionPredictor(); cp != nil && cp.Predictions() > 0 {
			c.Predictions += cp.Predictions()
			c.PredCorrectSum += cp.Accuracy() * float64(cp.Predictions())
		}
	}
	return c
}

// addHops reads the mesh's hop total when traced. The mesh is not
// exported by sim.System, so this takes a full system snapshot; the
// span "bench.snapshot" keeps that cost apart from the layers'.
func (c *counts) addHops(tr *tracer, cell int, sys *sim.System) {
	if tr == nil {
		return
	}
	sp := tr.begin("bench.snapshot", cell)
	c.HopsSum += sys.Snapshot().Mesh.HopsSum
	tr.end(sp)
}

func (c *counts) add(o counts) {
	c.Cycles += o.Cycles
	c.CyclesVisited += o.CyclesVisited
	c.Committed += o.Committed
	c.Atomics += o.Atomics
	c.EagerIssued += o.EagerIssued
	c.LazyIssued += o.LazyIssued
	c.LQSquashes += o.LQSquashes
	c.SSViolations += o.SSViolations
	c.ForcedReleases += o.ForcedReleases
	c.Accesses += o.Accesses
	c.L1Hits += o.L1Hits
	c.Misses += o.Misses
	c.MSHRFull += o.MSHRFull
	c.ExtStalls += o.ExtStalls
	c.Prefetches += o.Prefetches
	c.GetS += o.GetS
	c.GetX += o.GetX
	c.Stalled += o.Stalled
	c.StallDepthSum += o.StallDepthSum
	c.StallDepthN += o.StallDepthN
	c.L3Misses += o.L3Misses
	c.Forwards += o.Forwards
	c.Invalidates += o.Invalidates
	c.Messages += o.Messages
	c.Predictions += o.Predictions
	c.PredCorrectSum += o.PredCorrectSum
	c.PredictedLazy += o.PredictedLazy
	c.HopsSum += o.HopsSum
}

// digest is a cell's golden fingerprint: its scheduler-normalized
// Result and, when given, its per-layer counts.
func digest(r sim.Result, c *counts) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Encoding a struct of numbers cannot fail.
	_ = enc.Encode(r.SchedNormalized())
	if c != nil {
		_ = enc.Encode(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
