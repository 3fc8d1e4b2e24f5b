package opt

import (
	"fmt"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/failure"
)

// gridPoint is one configuration of the property tests' sweep grid.
type gridPoint struct {
	cs             *compiledSpace // nil: every row takes clone+build
	batch, workers int
}

func (g gridPoint) String() string {
	return fmt.Sprintf("compiled %v batch %d workers %d", g.cs != nil, g.batch, g.workers)
}

// sweep is the grid point's sweep of the candidate slice [lo, hi).
func (g gridPoint) sweep(base *core.Design, knobs []Knob, scs []failure.Scenario, lo, hi int) *sweep {
	return &sweep{base: base, knobs: knobs, scs: scs, reuse: allRevertible(knobs),
		cs: g.cs, lo: lo, hi: hi, batch: g.batch, workers: g.workers}
}

// sweepGrid is batch sizes {1, 7, 64, space} x workers {1, 2, 8}, each
// with and without the compiled space (when the space compiles). It
// reaches combinations newSweep never plans — small batches on a
// compiled space, multi-candidate batches without one — so the sweep's
// result is pinned independently of the planner. The space is compiled
// once and shared: a compiled space is immutable.
func sweepGrid(t *testing.T, base *core.Design, knobs []Knob, scs []failure.Scenario) []gridPoint {
	t.Helper()
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	spaces := []*compiledSpace{nil}
	if cs, err := compileSpace(base, knobs, scs, 1); err == nil {
		spaces = append(spaces, cs)
	} else {
		t.Logf("space does not compile (%v): clone+build sweeps only", err)
	}
	var grid []gridPoint
	for _, cs := range spaces {
		for _, batch := range []int{1, 7, 64, space} {
			for _, workers := range []int{1, 2, 8} {
				grid = append(grid, gridPoint{cs: cs, batch: batch, workers: workers})
			}
		}
	}
	return grid
}

// frontierOf runs a frontier sweep and assembles its result.
func frontierOf(t *testing.T, sw *sweep, prune bool) *FrontierResult {
	t.Helper()
	set, tally, err := sw.frontier(prune)
	if err != nil {
		t.Fatal(err)
	}
	return assembleFrontier(set, sw.knobs, tally)
}

// TestSweepCompileThreshold: the planner compiles a slice only when it
// holds more candidates than the compile pass costs in clone+build work
// (one per knob option plus the probes), except that a pruned search
// always compiles. The 8- and 12-candidate spaces measure faster on
// clone+build than compiled; the 96-candidate space measures faster
// compiled.
func TestSweepCompileThreshold(t *testing.T) {
	base := casestudy.Baseline()
	scs := scenarios()
	cases := []struct {
		name     string
		knobs    []Knob
		compiles bool
	}{
		{"8 candidates", compiledKnobs()[:2], false},
		{"12 candidates (Table 7)", table7Knobs(), false},
		{"96 candidates", compiledKnobs()[:4], true},
	}
	for _, c := range cases {
		space, err := SpaceSize(c.knobs)
		if err != nil {
			t.Fatal(err)
		}
		sw := newSweep(base, c.knobs, scs, 0, space, 1, false)
		if got := sw.cs != nil; got != c.compiles {
			t.Errorf("%s: compiled %v, want %v (cost %d)", c.name, got, c.compiles, compileCost(c.knobs))
		}
		want := 1
		if c.compiles {
			want = min(defaultBatchSize, space)
		}
		if sw.batch != want {
			t.Errorf("%s: batch %d, want %d", c.name, sw.batch, want)
		}
		if forced := newSweep(base, c.knobs, scs, 0, space, 1, true); forced.cs == nil {
			t.Errorf("%s: a pruned search did not compile", c.name)
		}
	}
}
