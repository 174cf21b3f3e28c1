package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// goldenCell is one cell's committed fingerprint. Cycles and
// CyclesVisited are kept beside the digest so a mismatch report says
// whether simulated time or only the scheduler's visits moved.
type goldenCell struct {
	Cell          string `json:"cell"`
	Digest        string `json:"digest"`
	Cycles        uint64 `json:"cycles"`
	CyclesVisited uint64 `json:"cycles_visited"`
}

// goldenFile holds one workload's cells per resolved seed.
type goldenFile struct {
	Workload string                  `json:"workload"`
	Seeds    map[string][]goldenCell `json:"seeds"`
}

func goldenPath(dir, workload string) string { return filepath.Join(dir, workload+".json") }

// loadGolden returns the golden cells of workload at seed, or nil when
// none are committed for that seed.
func loadGolden(dir, workload string, seed uint64) ([]goldenCell, error) {
	g, err := readGolden(dir, workload)
	if err != nil {
		return nil, err
	}
	return g.Seeds[strconv.FormatUint(seed, 10)], nil
}

func readGolden(dir, workload string) (goldenFile, error) {
	g := goldenFile{Workload: workload, Seeds: map[string][]goldenCell{}}
	b, err := os.ReadFile(goldenPath(dir, workload))
	if errors.Is(err, os.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return g, fmt.Errorf("golden: %w", err)
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("golden %s: %w", goldenPath(dir, workload), err)
	}
	return g, nil
}

// writeGolden records cells as the golden set of workload at seed,
// keeping the other seeds' entries.
func writeGolden(dir, workload string, seed uint64, cells []goldenCell) error {
	g, err := readGolden(dir, workload)
	if err != nil {
		return err
	}
	g.Seeds[strconv.FormatUint(seed, 10)] = cells
	// One cell per line, seeds in numeric order, so the file diffs
	// by cell when a golden is re-recorded.
	seeds, err := goldenSeeds(g)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"workload\": %q, \"seeds\": {\n", g.Workload)
	for i, s := range seeds {
		k := strconv.FormatUint(s, 10)
		fmt.Fprintf(&b, "  %q: [\n", k)
		for j, c := range g.Seeds[k] {
			line, err := json.Marshal(c)
			if err != nil {
				return err
			}
			b.WriteString("    ")
			b.Write(line)
			if j < len(g.Seeds[k])-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("  ]")
		if i < len(seeds)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}}\n")
	return os.WriteFile(goldenPath(dir, workload), b.Bytes(), 0o644)
}

// checkCells compares one pass's cells with the golden cells by name
// (or, when the seed has none, with each cell's first run). It returns
// a description of each failure and the number of cells that failed.
func checkCells(got []goldenCell, errs []error, want map[string]goldenCell) (bad []string, failed int) {
	for i, c := range got {
		w, ok := want[c.Cell]
		switch {
		case errs[i] != nil:
			bad = append(bad, fmt.Sprintf("%s: %v", c.Cell, errs[i]))
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: no golden entry", c.Cell))
		case w.Digest != c.Digest:
			bad = append(bad, fmt.Sprintf("%s: digest %s, golden %s (cycles %d/%d, visited %d/%d)",
				c.Cell, c.Digest[:12], w.Digest[:12], c.Cycles, w.Cycles, c.CyclesVisited, w.CyclesVisited))
		default:
			continue
		}
		failed++
	}
	return bad, failed
}

// goldenSeeds lists the seeds g has entries for, sorted.
func goldenSeeds(g goldenFile) ([]uint64, error) {
	var seeds []uint64
	for k := range g.Seeds {
		s, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("golden %s: bad seed %q", g.Workload, k)
		}
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds, nil
}
