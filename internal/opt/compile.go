package opt

import (
	"fmt"
	"sort"
	"sync"

	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/parallel"
	"stordep/internal/whatif"
)

// This file compiles a knob space into flat per-candidate parameter
// tables so the exhaustive inner loop can run through the columnar batch
// kernel (core.BatchKernel) instead of cloning, re-applying knobs and
// re-building a System per candidate.
//
// The observation behind the compilation: knobs touch small, disjoint
// parts of a design. A one-time pass diffs every option of every knob
// against the base design to learn which hierarchy levels and device
// specs each knob can change, unions knobs with overlapping footprints
// into groups, and precomputes — for every joint option combination of
// each group — the level fragments (policy lags, retention spans,
// restore sizes, routing indices, demand lists) and device specs that
// combination produces. Filling a candidate row is then pure table
// lookup and float folding in exactly Build's order, so the results are
// bit-identical to the clone-and-build path.
//
// Anything the tables cannot represent exactly falls back to the
// clone+build path:
//
//   - per candidate: options whose effects the tables cannot carry
//     (moved devices, changed spare/facility/multi-sited configuration,
//     apply errors, unknown device references, invalid policies,
//     duplicate level names) mark just those candidates "slow"; the
//     sweep's scorer (sweep.go) sends slow rows down clone+build, so
//     they stay byte-identical by construction.
//   - per compilation: oversized groups, base designs that will not
//     build, or a probe mismatch abort the compilation; with no
//     compiled space, every row takes clone+build.
//   - probes: before a compiled space is trusted, a spread of candidate
//     indices is evaluated both ways and compared field by field.
//
// The compilation assumes each knob's Apply reads only design state
// that it (or a knob sharing its touch footprint) also writes — the
// same independence Knob.Revertible documents. Every built-in knob
// satisfies this: the only state a built-in knob reads (e.g. AccWKnob's
// propagation-window clamp, RetCntKnob's cycle-period read) lives on
// its own level, and any other knob writing that level lands in the
// same group, where joint enumeration reproduces the interaction
// exactly. The probe pass is the safety net for exotic knobs.

const (
	// defaultBatchSize is the candidate count per batched sweep step on
	// a compiled space.
	defaultBatchSize = 64
	// maxGroupOptions caps one group's joint-option product; interacting
	// knobs beyond it abort compilation rather than explode the tables.
	maxGroupOptions = 4096
	// maxCompileWork caps the total option extractions of one
	// compilation (per-knob diffs plus all group tables).
	maxCompileWork = 16384
	// compileProbes is how many spread candidate indices are verified
	// against the clone+build path before a compiled space is trusted.
	compileProbes = 16
)

// groupEntry is one joint option combination of a knob group: either
// the precomputed fragments/specs, or suspect (candidate goes slow).
type groupEntry struct {
	suspect bool
	frags   []core.LevelFrag // aligned with knobGroup.levels
	specs   []device.Spec    // aligned with knobGroup.devices
}

// knobGroup unions knobs whose touch footprints overlap. Its table
// holds one entry per joint option combination (members in knob order,
// last member least significant — the mixed-radix convention).
type knobGroup struct {
	members []int // knob indices, ascending
	radix   []int
	size    int
	levels  []int // touched level indices, ascending
	devices []int // touched device indices, ascending
	entries []groupEntry
}

// compiledSpace is the compiled form of (base design, knob set,
// scenario set): immutable after compileSpace, safe for concurrent fill
// with distinct core.RowScratch/Cols. Turning a candidate's fragments
// and specs into a row is the shared core.RowBuilder's job; this type
// owns only the knob side — footprints, groups and their joint tables.
type compiledSpace struct {
	base  *core.Design
	knobs []Knob
	scs   []failure.Scenario
	kern  *core.BatchKernel
	rb    *core.RowBuilder

	nLevels  int
	nDevices int

	groups     []knobGroup
	levelOwner []int // level -> owning group, -1 = untouched (base)
	specOwner  []int // device -> owning group, -1 = base spec
	specSlot   []int // position in the owner's devices list
	// knobSuspect[k][o]: option o of knob k is unrepresentable (apply
	// error or forbidden change) — every candidate choosing it is slow.
	knobSuspect [][]bool
}

// compileSpace builds the compiled form or reports why it cannot. A nil
// error means the space passed probe verification; any error means
// every candidate takes clone+build (the error is diagnostic only).
func compileSpace(base *core.Design, knobs []Knob, scs []failure.Scenario, workers int) (*compiledSpace, error) {
	work := 0
	for _, k := range knobs {
		work += len(k.Options)
	}
	if work > maxCompileWork {
		return nil, fmt.Errorf("opt: compile: %d knob options exceed the compile work cap", work)
	}
	baseSys, err := core.Build(base)
	if err != nil {
		return nil, fmt.Errorf("opt: compile: base design: %w", err)
	}
	kern, err := core.NewBatchKernel(baseSys, scs)
	if err != nil {
		return nil, fmt.Errorf("opt: compile: %w", err)
	}
	rb, err := core.NewRowBuilder(base, kern)
	if err != nil {
		return nil, fmt.Errorf("opt: compile: %w", err)
	}
	cs := &compiledSpace{
		base:     base,
		knobs:    knobs,
		scs:      scs,
		kern:     kern,
		rb:       rb,
		nLevels:  kern.Levels(),
		nDevices: kern.Devices(),
	}
	remaining := maxCompileWork - work
	if err := cs.groupKnobs(remaining); err != nil {
		return nil, err
	}
	if err := cs.extractGroups(workers); err != nil {
		return nil, err
	}
	if err := cs.verify(); err != nil {
		return nil, err
	}
	return cs, nil
}

// groupKnobs diffs every option of every knob against the base to learn
// each knob's touch footprint, then unions knobs sharing a level or a
// device spec into groups. budget bounds the total group table size.
func (cs *compiledSpace) groupKnobs(budget int) error {
	nk := len(cs.knobs)
	cs.knobSuspect = make([][]bool, nk)
	touchL := make([][]int, nk)
	touchD := make([][]int, nk)
	var t core.Touch
	for k := range cs.knobs {
		opts := cs.knobs[k].Options
		cs.knobSuspect[k] = make([]bool, len(opts))
		lset, dset := map[int]bool{}, map[int]bool{}
		for o := range opts {
			d, err := Clone(cs.base)
			if err != nil {
				return err
			}
			if err := cs.knobs[k].Apply(d, o); err != nil {
				// Clone+build aborts the whole search on an apply
				// error; the slow path reproduces exactly that.
				cs.knobSuspect[k][o] = true
				continue
			}
			if !cs.rb.Diff(d, &t) {
				cs.knobSuspect[k][o] = true
				continue
			}
			for _, j := range t.Levels {
				lset[j] = true
			}
			for _, di := range t.Devices {
				dset[di] = true
			}
		}
		touchL[k] = sortedKeys(lset)
		touchD[k] = sortedKeys(dset)
	}

	// Union-find over knobs: two knobs sharing a touched level or spec
	// interact and must be enumerated jointly.
	parent := make([]int, nk)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	levelTo := map[int]int{}
	devTo := map[int]int{}
	for k := 0; k < nk; k++ {
		for _, j := range touchL[k] {
			if p, ok := levelTo[j]; ok {
				union(p, k)
			} else {
				levelTo[j] = k
			}
		}
		for _, di := range touchD[k] {
			if p, ok := devTo[di]; ok {
				union(p, k)
			} else {
				devTo[di] = k
			}
		}
	}

	byRoot := map[int]*knobGroup{}
	var roots []int
	for k := 0; k < nk; k++ {
		if len(touchL[k]) == 0 && len(touchD[k]) == 0 {
			continue // touchless knob: every option leaves the base state
		}
		r := find(k)
		g, ok := byRoot[r]
		if !ok {
			g = &knobGroup{}
			byRoot[r] = g
			roots = append(roots, r)
		}
		g.members = append(g.members, k)
		g.levels = append(g.levels, touchL[k]...)
		g.devices = append(g.devices, touchD[k]...)
	}

	cs.levelOwner = make([]int, cs.nLevels)
	cs.specOwner = make([]int, cs.nDevices)
	cs.specSlot = make([]int, cs.nDevices)
	for j := range cs.levelOwner {
		cs.levelOwner[j] = -1
	}
	for i := range cs.specOwner {
		cs.specOwner[i] = -1
	}
	total := 0
	for _, r := range roots {
		g := byRoot[r]
		sort.Ints(g.members)
		g.levels = dedupSorted(g.levels)
		g.devices = dedupSorted(g.devices)
		g.size = 1
		for _, k := range g.members {
			n := len(cs.knobs[k].Options)
			g.radix = append(g.radix, n)
			if g.size > maxGroupOptions/n {
				return fmt.Errorf("opt: compile: knob group around %q exceeds %d joint options",
					cs.knobs[k].Name, maxGroupOptions)
			}
			g.size *= n
		}
		total += g.size
		if total > budget {
			return fmt.Errorf("opt: compile: group tables exceed the compile work cap")
		}
		gi := len(cs.groups)
		for _, j := range g.levels {
			cs.levelOwner[j] = gi
		}
		for slot, di := range g.devices {
			cs.specOwner[di] = gi
			cs.specSlot[di] = slot
		}
		cs.groups = append(cs.groups, *g)
	}
	return nil
}

// extractGroups fills each group's joint-option table by applying the
// member knobs (in knob order, on a fresh clone per combination) and
// re-diffing against the base. Combinations whose effects stray outside
// the group's footprint, or fail any validation, are marked suspect.
// Extraction is the expensive part of compilation, so it runs on the
// worker pool, each worker capturing demands on a pooled fleet.
func (cs *compiledSpace) extractGroups(workers int) error {
	var fleets sync.Pool
	for gi := range cs.groups {
		g := &cs.groups[gi]
		g.entries = make([]groupEntry, g.size)
		err := parallel.ForEach(workers, g.size, func(t int) error {
			e := &g.entries[t]
			opts := make([]int, len(g.members))
			rem := t
			for mi := len(g.members) - 1; mi >= 0; mi-- {
				opts[mi] = rem % g.radix[mi]
				rem /= g.radix[mi]
			}
			for mi, k := range g.members {
				if cs.knobSuspect[k][opts[mi]] {
					e.suspect = true
					return nil
				}
			}
			d, err := Clone(cs.base)
			if err != nil {
				return err
			}
			for mi, k := range g.members {
				if err := cs.knobs[k].Apply(d, opts[mi]); err != nil {
					e.suspect = true
					return nil
				}
			}
			var dt core.Touch
			if !cs.rb.Diff(d, &dt) {
				e.suspect = true
				return nil
			}
			for _, j := range dt.Levels {
				if cs.levelOwner[j] != gi {
					e.suspect = true
					return nil
				}
			}
			for _, di := range dt.Devices {
				if cs.specOwner[di] != gi {
					e.suspect = true
					return nil
				}
			}
			fl, _ := fleets.Get().(*core.CaptureFleet)
			if fl == nil {
				if fl, err = cs.rb.NewFleet(); err != nil {
					return err
				}
			}
			defer fleets.Put(fl)
			e.frags = make([]core.LevelFrag, len(g.levels))
			for li, j := range g.levels {
				f, err := cs.rb.Fragment(d.Levels[j], fl, nil)
				if err != nil {
					e.suspect = true
					return nil
				}
				e.frags[li] = f
			}
			e.specs = make([]device.Spec, len(g.devices))
			for si, di := range g.devices {
				sp := d.Devices[di].Spec
				if err := sp.Validate(); err != nil {
					e.suspect = true
					return nil
				}
				e.specs[si] = sp
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// fill resolves candidate `choice` into Cols row `row`: each group's
// joint-option entry supplies the fragments and specs of the slots it
// owns, and the row builder folds them in exactly Build's order. Returns
// true when the candidate must take the clone+build slow path (the row
// is then marked invalid). Allocation-free.
func (cs *compiledSpace) fill(rs *core.RowScratch, cols *core.Cols, row int, choice []int) bool {
	for k, o := range choice {
		if cs.knobSuspect[k][o] {
			cols.Valid[row] = false
			return true
		}
	}
	for gi := range cs.groups {
		g := &cs.groups[gi]
		t := 0
		for mi, k := range g.members {
			t = t*g.radix[mi] + choice[k]
		}
		e := &g.entries[t]
		if e.suspect {
			cols.Valid[row] = false
			return true
		}
		for li, j := range g.levels {
			rs.Frags[j] = &e.frags[li]
		}
		for si, di := range g.devices {
			rs.Specs[di] = &e.specs[si]
		}
	}
	return !cs.rb.Fill(rs, cols, row)
}

// verify evaluates a spread of candidate indices through both the
// compiled tables and the clone+build path and compares every output
// field. Any mismatch rejects the compilation. Slow rows take
// clone+build in the sweep, so they are exact by construction and are
// not compared.
func (cs *compiledSpace) verify() error {
	space, err := spaceSize(cs.knobs)
	if err != nil {
		return err
	}
	probes := min(compileProbes, space)
	sc := cs.rowScorer()
	var res whatif.Result
	for p := 0; p < probes; p++ {
		idx := 0
		if probes > 1 {
			idx = p * (space - 1) / (probes - 1)
		}
		sc.assess(idx, 1)
		if sc.slow[0] {
			continue
		}
		d, err := applyChoice(cs.base, cs.knobs, sc.choice)
		if err != nil {
			return fmt.Errorf("opt: compile probe %d: apply fails (%v) but tables claim fast path", idx, err)
		}
		sc.eval.EvaluateInto(d, cs.scs, &res)
		if res.Err != nil {
			return fmt.Errorf("opt: compile probe %d: build fails (%v) but tables claim fast path", idx, res.Err)
		}
		if sc.cols.OutlaysTotal[0] != res.Outlays {
			return fmt.Errorf("opt: compile probe %d: outlays %v != %v", idx, sc.cols.OutlaysTotal[0], res.Outlays)
		}
		for si := range cs.scs {
			b := sc.bs.Briefs[si]
			o := res.Outcomes[si]
			if b.RecoveryTime != o.RecoveryTime || b.DataLoss != o.DataLoss ||
				b.Penalties != o.Penalties || b.Total != o.Total || b.WholeObjectLost != o.Lost {
				return fmt.Errorf("opt: compile probe %d scenario %d: batch %+v != clone+build %+v", idx, si, b, o)
			}
		}
	}
	return nil
}

func sortedKeys(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func dedupSorted(s []int) []int {
	sort.Ints(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
