package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
)

// ShardPlan is the machine-readable parallel execution plan rowlint
// -shard-plan emits: the artifact the future epoch/barrier executor
// consumes directly. It records the epoch bound derived from the
// interconnect's hop costs, the per-domain shard assignment, and a
// verdict for every declared seam. The plan is fully deterministic (no
// timestamps, sorted slices), so CI can regenerate it and fail on any
// drift from the committed copy.
type ShardPlan struct {
	Version int    `json:"version"`
	Module  string `json:"module"`
	// Entries are the //rowlint:entry run-loop roots the proofs walk
	// from.
	Entries []string          `json:"entries"`
	Epoch   EpochBound        `json:"epoch"`
	Shards  []ShardAssignment `json:"shards"`
	Seams   []SeamVerdict     `json:"seams"`
	Checks  PlanChecks        `json:"checks"`
}

// shardPlanVersion bumps when the schema changes shape.
const shardPlanVersion = 1

// EpochBound is the derived epoch sizing: cross-shard messages travel
// through the mesh, and the cheapest mesh delivery (adjacent nodes,
// default timing) takes MinCrossShardLatencyCycles. An epoch no longer
// than that can exchange messages only at barriers and still be
// bit-identical to the sequential schedule. The values are extracted
// from the config package's Default() literal; a run with custom
// timing must recompute the bound with the same formula.
type EpochBound struct {
	MinCrossShardLatencyCycles int64  `json:"min_cross_shard_latency_cycles"`
	MinHops                    int64  `json:"min_hops"`
	LinkCycles                 int64  `json:"link_cycles"`
	RouterCycles               int64  `json:"router_cycles"`
	BaseCycles                 int64  `json:"base_cycles"`
	Formula                    string `json:"formula"`
	Source                     string `json:"source"`
}

// ShardAssignment records how one ownership domain maps onto the
// epoch-parallel execution: which shard runs it, or how shards share
// it.
type ShardAssignment struct {
	Domain     string   `json:"domain"`
	Assignment string   `json:"assignment"`
	Types      []string `json:"types,omitempty"` // named types owned by the domain (from the ownership report)
}

// SeamVerdict is the per-seam proof result: the declared kind, the
// recorded reason, and whether epochsafe proved the obligation.
type SeamVerdict struct {
	Func   string `json:"func"`
	Domain string `json:"domain,omitempty"` // callee-side domain of the crossing
	Kind   string `json:"kind"`
	Reason string `json:"reason"`
	// Verdict is "proven" or "unproven". Suppressed findings do not
	// block a proof but are recorded so the plan shows what was waived.
	Verdict    string `json:"verdict"`
	Findings   int    `json:"findings,omitempty"`
	Suppressed int    `json:"suppressed,omitempty"`
	// Implementations lists the concrete methods proven for a seam
	// declared on an interface method.
	Implementations []string `json:"implementations,omitempty"`
}

// PlanChecks are the gate counters CI fails on.
type PlanChecks struct {
	UnprovenSeams      int `json:"unproven_seams"`
	InitOnlyViolations int `json:"init_only_violations"`
	ShardSyncHazards   int `json:"shard_sync_hazards"`
	UnclassifiedEdges  int `json:"unclassified_edges"`
	SuppressedFindings int `json:"suppressed_findings"`
}

// Clean reports whether every gate is zero.
func (c PlanChecks) Clean() bool {
	return c.UnprovenSeams == 0 && c.InitOnlyViolations == 0 &&
		c.ShardSyncHazards == 0 && c.UnclassifiedEdges == 0
}

// JSON renders the plan for the committed artifact. HTML escaping is
// off so the formula's ">=" survives review-friendly.
func (p *ShardPlan) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// shardAssignments spells out how the epoch/barrier scheme handles
// each domain (the prose half the executor's scheduler implements).
var shardAssignments = []struct {
	domain     Domain
	assignment string
}{
	{DomainCore, "per-index: core[i] runs on shard i, together with cache[i] so same-index seams stay shard-local"},
	{DomainCache, "per-index: cache[i] runs on shard i, together with core[i] so same-index seams stay shard-local"},
	{DomainBank, "per-index: bank[i] runs on shard hash(i); banks never touch each other, only the mesh"},
	{DomainMesh, "barrier-exchanged: the mesh is the one cross-shard channel; enqueued messages are drained and delivered at epoch boundaries"},
	{DomainSimGlobal, "replicated: each shard keeps a replica (clock, pools, sinks) and reduction seams merge them at epoch boundaries"},
	{DomainReadonly, "shared-immutable: config and traces are frozen after construction (proven by the init-only pass), so every shard reads without synchronization"},
	{DomainMessage, "ownership-transferring: a message belongs to whichever shard holds it; transfer happens only through the mesh"},
}

// BuildShardPlan assembles the parallel execution plan for the loaded
// packages: the ownership report's domain map and edge classification,
// the epochsafe verdict for every declared seam, and the epoch bound
// derived from the interconnect timing defaults. The package set must
// include the config and interconnect packages (lint ./... from the
// module root).
func BuildShardPlan(l *Loader, pkgs []*Package) (*ShardPlan, error) {
	rep, err := BuildOwnershipReport(l, pkgs)
	if err != nil {
		return nil, err
	}
	epoch, err := deriveEpochBound(pkgs)
	if err != nil {
		return nil, err
	}
	plan := &ShardPlan{
		Version: shardPlanVersion,
		Module:  l.ModPath,
		Entries: rep.Entries,
		Epoch:   epoch,
	}

	for _, sa := range shardAssignments {
		plan.Shards = append(plan.Shards, ShardAssignment{
			Domain:     sa.domain.Render(),
			Assignment: sa.assignment,
			Types:      rep.Domains[sa.domain.Render()],
		})
	}

	// Tally epochsafe findings per seam and per category, with the
	// same suppression semantics the analyzer has.
	type tally struct{ findings, suppressed int }
	seamTally := make(map[*types.Func]*tally)
	for _, p := range sortedPackages(pkgs) {
		dirs, _ := parseDirectives(p)
		for _, f := range epochFindings(p) {
			pos := p.Fset.Position(f.pos)
			suppressed := dirs[directiveKey(pos.Filename, pos.Line, EpochSafe.Name)] != nil
			if suppressed {
				plan.Checks.SuppressedFindings++
			}
			switch f.cat {
			case catSeam:
				t := seamTally[f.seam]
				if t == nil {
					t = &tally{}
					seamTally[f.seam] = t
				}
				if suppressed {
					t.suppressed++
				} else {
					t.findings++
				}
			case catInitOnly:
				if !suppressed {
					plan.Checks.InitOnlyViolations++
				}
			case catHazard:
				if !suppressed {
					plan.Checks.ShardSyncHazards++
				}
			}
		}
	}

	// One verdict per declared seam, across every linted package.
	r := resolver{}
	for _, p := range sortedPackages(pkgs) {
		r.pkg = p
		for _, fn := range sortedSeamFuncs(p.Ownership().seams) {
			sd := p.Ownership().seams[fn]
			v := SeamVerdict{
				Func:   renderFunc(fn),
				Kind:   string(sd.Kind),
				Reason: sd.Reason,
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if d := r.typeDomain(sig.Recv().Type()); d != DomainNone {
					v.Domain = d.Render()
				}
			}
			if isInterfaceMethod(fn) {
				for _, impl := range l.implementations(fn) {
					v.Implementations = append(v.Implementations, renderFunc(impl))
				}
				sort.Strings(v.Implementations)
			}
			if t := seamTally[fn]; t != nil {
				v.Findings, v.Suppressed = t.findings, t.suppressed
			}
			if sd.Kind == SeamKindInvalid || v.Findings > 0 {
				v.Verdict = "unproven"
				plan.Checks.UnprovenSeams++
			} else {
				v.Verdict = "proven"
			}
			plan.Seams = append(plan.Seams, v)
		}
	}
	sort.Slice(plan.Seams, func(i, j int) bool {
		if plan.Seams[i].Func != plan.Seams[j].Func {
			return plan.Seams[i].Func < plan.Seams[j].Func
		}
		return plan.Seams[i].Kind < plan.Seams[j].Kind
	})
	plan.Checks.UnclassifiedEdges = rep.Unclassified
	return plan, nil
}

// deriveEpochBound extracts the minimum cross-shard message latency
// from the config package's Default() timing literal, anchored against
// the interconnect's Latency implementation (base + hops*(link +
// router), Manhattan hops). If either side disappears or moves, the
// derivation fails and the plan cannot be regenerated — exactly the
// signal that the formula drifted.
func deriveEpochBound(pkgs []*Package) (EpochBound, error) {
	var cfg, mesh *Package
	for _, p := range pkgs {
		switch packageBase(p.Path) {
		case "config":
			cfg = p
		case "interconnect":
			mesh = p
		}
	}
	if cfg == nil || mesh == nil {
		return EpochBound{}, fmt.Errorf("lint: shard plan needs the config and interconnect packages in the linted set; run rowlint -shard-plan over ./... from the module root")
	}
	if !hasMethod(mesh, "Mesh", "Latency") {
		return EpochBound{}, fmt.Errorf("lint: shard plan epoch bound is anchored to interconnect.Mesh.Latency, which no longer exists; update deriveEpochBound to the new hop-cost model")
	}
	vals, err := defaultTimingConstants(cfg, "LinkCycles", "RouterCycles", "BaseCycles")
	if err != nil {
		return EpochBound{}, err
	}
	const minHops = 1 // adjacent mesh nodes: the cheapest cross-shard delivery
	link, router, base := vals["LinkCycles"], vals["RouterCycles"], vals["BaseCycles"]
	return EpochBound{
		MinCrossShardLatencyCycles: base + minHops*(link+router),
		MinHops:                    minHops,
		LinkCycles:                 link,
		RouterCycles:               router,
		BaseCycles:                 base,
		Formula:                    "base_cycles + hops*(link_cycles + router_cycles), hops >= 1",
		Source:                     "config.Default() Mem timing, applied by interconnect.Mesh.Latency",
	}, nil
}

// hasMethod reports whether the package declares a method named method
// on a receiver type named recv.
func hasMethod(p *Package, recv, method string) bool {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != method || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			t := fd.Recv.List[0].Type
			if st, ok := t.(*ast.StarExpr); ok {
				t = st.X
			}
			if id, ok := t.(*ast.Ident); ok && id.Name == recv {
				return true
			}
		}
	}
	return false
}

// defaultTimingConstants extracts named integer constants from the
// composite literal inside the config package's Default() function.
// Each key must appear exactly once with a compile-time constant
// value.
func defaultTimingConstants(cfg *Package, keys ...string) (map[string]int64, error) {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	vals := make(map[string]int64)
	var dup string
	for _, f := range cfg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Default" || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				kv, ok := n.(*ast.KeyValueExpr)
				if !ok {
					return true
				}
				id, ok := kv.Key.(*ast.Ident)
				if !ok || !want[id.Name] {
					return true
				}
				tv, ok := cfg.Info.Types[kv.Value]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
					return true
				}
				v, exact := constant.Int64Val(tv.Value)
				if !exact {
					return true
				}
				if _, seen := vals[id.Name]; seen && vals[id.Name] != v {
					dup = id.Name
				}
				vals[id.Name] = v
				return true
			})
		}
	}
	if dup != "" {
		return nil, fmt.Errorf("lint: shard plan epoch bound: %s appears more than once with different values in config.Default()", dup)
	}
	for _, k := range keys {
		if _, ok := vals[k]; !ok {
			return nil, fmt.Errorf("lint: shard plan epoch bound: config.Default() no longer sets %s as a constant; update deriveEpochBound to the new timing model", k)
		}
	}
	return vals, nil
}
