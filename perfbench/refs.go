package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// refsPath is where --record writes, relative to the repository root
// the benchmark runs from.
const refsPath = "perfbench/refs.json"

// chaosStratum is the number of catalogue cases per cost stratum.
const chaosStratum = 20

//go:embed refs.json
var refsJSON []byte

// references are the recorded outputs every run is checked against.
type references struct {
	// Search holds the default-seed answer of each op of the search
	// cycle.
	Search []string `json:"search"`
	// Montecarlo holds the default-seed fold fingerprint of each
	// campaign: the digest over all its observations and a hash of its
	// report.
	Montecarlo []string `json:"montecarlo"`
	// Chaos is the case catalogue the chaos workload draws from, as
	// strata of chaosStratum cases of similar CPU time, cheapest first. Each case carries its summary digest, so chaos ops are
	// checked on every seed.
	Chaos [][]chaosCase `json:"chaos"`
}

// chaosCase is one catalogue entry, stored as "seed/digest".
type chaosCase struct {
	Seed   int64
	Digest string
}

func (c chaosCase) MarshalText() ([]byte, error) {
	return []byte(fmt.Sprintf("%d/%s", c.Seed, c.Digest)), nil
}

func (c *chaosCase) UnmarshalText(b []byte) error {
	seed, digest, ok := strings.Cut(string(b), "/")
	if !ok {
		return fmt.Errorf("chaos case %q: want seed/digest", b)
	}
	n, err := strconv.ParseInt(seed, 10, 64)
	if err != nil {
		return fmt.Errorf("chaos case %q: %w", b, err)
	}
	c.Seed, c.Digest = n, digest
	return nil
}

func loadRefs() (*references, error) { return parseRefs(refsJSON) }

func parseRefs(data []byte) (*references, error) {
	var refs references
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	return &refs, nil
}

// refIndex maps op i to the index of its default-seed reference, if it
// has one: search ops repeat with the objective cycle, and a Monte Carlo
// op has one only when it folds a campaign.
func refIndex(name string, i int) (int, bool) {
	switch name {
	case "search":
		return i % searchPeriod, true
	case "montecarlo":
		return i / mcTrials, i%mcTrials == mcTrials-1
	}
	return 0, false
}

// recordRefs rewrites one workload's references, keeping the others':
// the search cycle's answers, the folds of n/1000 Monte Carlo campaigns,
// or a catalogue of n chaos cases. It starts from the file on disk, so
// successive recordings accumulate.
func recordRefs(name string, n int) error {
	data, err := os.ReadFile(refsPath)
	if err != nil {
		return err
	}
	refs, err := parseRefs(data)
	if err != nil {
		return err
	}
	switch name {
	case "search":
		refs.Search, err = recordOps(name, searchPeriod, refs)
	case "montecarlo":
		var fps []string
		fps, err = recordOps(name, n-n%mcTrials, refs)
		refs.Montecarlo = nil
		for i := mcTrials - 1; i < len(fps); i += mcTrials {
			refs.Montecarlo = append(refs.Montecarlo, fps[i])
		}
	case "chaos":
		refs.Chaos, err = recordCatalogue(n - n%chaosStratum)
	}
	if err != nil {
		return err
	}
	data, err = json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsPath, append(data, '\n'), 0o644)
}

// recordOps returns the fingerprints of the first n default-seed ops.
func recordOps(name string, n int, refs *references) ([]string, error) {
	w, err := newWorkload(name, newInputs(defaultSeed), refs)
	if err != nil {
		return nil, err
	}
	fps := make([]string, n)
	for i := range fps {
		fp, err := w.op(i, nil)
		if err != nil {
			return nil, fmt.Errorf("recording %s op %d: %w", name, i, err)
		}
		fps[i] = fp
	}
	return fps, nil
}

// catalogueTimings is how many times recordCatalogue times each case.
const catalogueTimings = 3

// recordCatalogue runs chaos cases 1..n catalogueTimings times over,
// sorts them by the median of their CPU times and cuts the order into
// strata. Sorting by allocation count, which is deterministic, left
// cases of twice each other's cost in the strata around the median case,
// whose cost then moved with the cases a seed drew. Each pass must
// reproduce the first pass's digests.
func recordCatalogue(n int) ([][]chaosCase, error) {
	cases := make([]chaosCase, n)
	times := make([][]float64, n)
	for pass := 0; pass < catalogueTimings; pass++ {
		for i := range cases {
			seed := int64(i + 1)
			t0 := cpuNow()
			fp, err := runCase(seed, nil, 0)
			d := cpuNow() - t0
			if err != nil {
				return nil, fmt.Errorf("recording chaos case %d: %w", seed, err)
			}
			if pass == 0 {
				cases[i] = chaosCase{seed, fp}
			} else if fp != cases[i].Digest {
				return nil, fmt.Errorf("recording chaos case %d: digest %s, then %s", seed, cases[i].Digest, fp)
			}
			times[i] = append(times[i], float64(d))
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return median(times[order[a]]) < median(times[order[b]]) })
	var strata [][]chaosCase
	for i := 0; i < n; i += chaosStratum {
		s := make([]chaosCase, 0, chaosStratum)
		for _, k := range order[i : i+chaosStratum] {
			s = append(s, cases[k])
		}
		strata = append(strata, s)
	}
	return strata, nil
}
