package opt

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// compiledKnobs is a fixed knob set covering every built-in knob shape:
// technique substitution (policy), retention counts on two levels, a
// device-spec rewrite (link count), and a pure tie-breaker. All changes
// are representable, so the compiled tables carry every candidate.
func compiledKnobs() []Knob {
	weeklyVault := casestudy.VaultPolicy()
	weeklyVault.Primary.AccW = units.Week
	weeklyVault.RetCnt = 156
	return []Knob{
		PolicyKnob("vaulting", []string{"4-weekly", "weekly"},
			[]hierarchy.Policy{casestudy.VaultPolicy(), weeklyVault}),
		RetCntKnob("vaulting", []int{2, 4, 8, 13}),
		RetCntKnob("backup", []int{7, 14, 28}),
		LinkCountKnob("tape-library", []int{4, 8, 12, 16}),
		{
			Name:       "tie",
			Options:    []string{"first", "second", "third"},
			Apply:      func(*core.Design, int) error { return nil },
			Revertible: true,
		},
	}
}

// TestExhaustiveBatchedMatchesSliceOracle: the acceptance grid of the
// sweep — on randomized knob spaces, the argmin sweep returns
// byte-identical Solutions to the slice-based oracle for batch sizes
// {1, 7, 64, space} x workers {1, 2, 8}, with and without a compiled
// space.
func TestExhaustiveBatchedMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := casestudy.Baseline()
	scs := scenarios()
	for trial := 0; trial < 6; trial++ {
		knobs := randomKnobs(rng)
		space, err := SpaceSize(knobs)
		if err != nil {
			t.Fatal(err)
		}
		ref, refErr := sliceExhaustive(base, knobs, scs, nil)
		for _, g := range sweepGrid(t, base, knobs, scs) {
			label := fmt.Sprintf("trial %d %v (space %d)", trial, g, space)
			sol, err := g.sweep(base, knobs, scs, 0, space).argmin(WorstTotalObjective(), ExhaustiveOptions{})
			if refErr != nil {
				if !errors.Is(err, refErr) && (err == nil || err.Error() != refErr.Error()) {
					t.Errorf("%s: err = %v, oracle err = %v", label, err, refErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			solutionsIdentical(t, label, ref, sol)
			if sol.CandidateIndex != ref.CandidateIndex {
				t.Errorf("%s: candidate index %d, oracle %d", label, sol.CandidateIndex, ref.CandidateIndex)
			}
		}
	}
}

// TestCompiledSpaceMatchesLegacyPerCandidate: stronger than argmin
// equality — for every candidate the tables claim to carry, the filled
// row's outlays and batch-assessed outcomes score identically (as raw
// float bits) to the legacy clone+build+assess path.
func TestCompiledSpaceMatchesLegacyPerCandidate(t *testing.T) {
	base := casestudy.Baseline()
	knobs := compiledKnobs()
	scs := scenarios()
	cs, err := compileSpace(base, knobs, scs, 1)
	if err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	objective := WorstTotalObjective()
	cols := cs.kern.NewCols(1)
	var bs core.BatchScratch
	rs := cs.rb.NewScratch()
	choice := make([]int, len(knobs))
	var res whatif.Result
	fast := 0
	for idx := 0; idx < space; idx++ {
		decodeChoice(choice, knobs, idx)
		want, err := scoreCandidate(base, knobs, scs, objective, choice)
		if err != nil {
			t.Fatalf("candidate %d: %v", idx, err)
		}
		if cs.fill(rs, cols, 0, choice) {
			continue // slow path delegates to the legacy code: exact by construction
		}
		fast++
		cs.kern.AssessBatch(1, cols, &bs)
		res.Design = base.Name
		res.Err = nil
		res.Outlays = cols.OutlaysTotal[0]
		res.Outcomes = res.Outcomes[:0]
		for si := range scs {
			b := bs.Briefs[si]
			res.Outcomes = append(res.Outcomes, whatif.Outcome{
				Scenario:     scs[si],
				RecoveryTime: b.RecoveryTime,
				DataLoss:     b.DataLoss,
				Penalties:    b.Penalties,
				Total:        b.Total,
				Lost:         b.WholeObjectLost,
			})
		}
		if got := objective(res); got != want {
			t.Errorf("candidate %d: compiled score %v, legacy %v", idx, got, want)
		}
	}
	if fast == 0 {
		t.Fatal("no candidate took the fast path; the compiled tables carry nothing")
	}
	// The unbuildable low-link-count candidates go slow (fill replicates
	// Check); everything buildable should be carried by the tables.
	if fast < space/2 {
		t.Errorf("only %d/%d candidates on the fast path", fast, space)
	}
}

// TestExhaustiveBatchedShardsMergeIdentically: at every sweep grid
// point, shard sweeps merge to exactly the unsharded (and slice-oracle)
// Solution — the sharded/distributed ledger path stays deterministic
// through the batch kernel.
func TestExhaustiveBatchedShardsMergeIdentically(t *testing.T) {
	base := casestudy.Baseline()
	knobs := compiledKnobs()
	scs := scenarios()
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sliceExhaustive(base, knobs, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	objective := WorstTotalObjective()
	for _, g := range sweepGrid(t, base, knobs, scs) {
		whole, err := g.sweep(base, knobs, scs, 0, space).argmin(objective, ExhaustiveOptions{})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		solutionsIdentical(t, fmt.Sprintf("%v vs oracle", g), ref, whole)
		for _, m := range []int{2, 3, 5} {
			sols := make([]*Solution, m)
			for k := 0; k < m; k++ {
				lo, hi := Shard{Index: k, Count: m}.bounds(space)
				sol, err := g.sweep(base, knobs, scs, lo, hi).argmin(objective, ExhaustiveOptions{})
				switch {
				case err == nil:
					sols[k] = sol
				case errors.Is(err, ErrNoFeasible) && m > space:
				default:
					t.Fatalf("%v shard %d/%d: %v", g, k, m, err)
				}
			}
			merged, err := MergeShards(sols)
			if err != nil {
				t.Fatalf("%v: merge %d shards: %v", g, m, err)
			}
			label := fmt.Sprintf("%v: %d shards", g, m)
			solutionsIdentical(t, label, whole, merged)
			if merged.CandidateIndex != whole.CandidateIndex {
				t.Errorf("%s: candidate index %d, want %d", label, merged.CandidateIndex, whole.CandidateIndex)
			}
		}
	}
}

// TestCompileSpaceGroupsInteractingKnobs: knobs touching the same level
// (a policy substitution and a retention count on "vaulting") land in
// one group whose joint table reproduces their interaction; disjoint
// knobs stay in separate groups.
func TestCompileSpaceGroupsInteractingKnobs(t *testing.T) {
	base := casestudy.Baseline()
	knobs := compiledKnobs()
	cs, err := compileSpace(base, knobs, scenarios(), 1)
	if err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	var joint *knobGroup
	for gi := range cs.groups {
		for _, m := range cs.groups[gi].members {
			if knobs[m].Name == knobs[0].Name { // the vaulting policy knob
				joint = &cs.groups[gi]
			}
		}
	}
	if joint == nil {
		t.Fatal("vaulting policy knob not grouped")
	}
	if len(joint.members) != 2 {
		t.Fatalf("vaulting group has members %v, want the policy and retention knobs", joint.members)
	}
	if joint.size != 2*4 {
		t.Errorf("joint table has %d entries, want 8", joint.size)
	}
	for k := range knobs {
		for o, bad := range cs.knobSuspect[k] {
			if bad {
				t.Errorf("knob %q option %d marked suspect; all options are representable", knobs[k].Name, o)
			}
		}
	}
	// The tie knob touches nothing: it must not appear in any group.
	for gi := range cs.groups {
		for _, m := range cs.groups[gi].members {
			if knobs[m].Name == "tie" {
				t.Error("no-op knob was grouped")
			}
		}
	}
}

// TestCompiledFallbacks: options the tables cannot represent — design
// renames, device moves, apply errors — send their candidates down the
// clone+build path and never silently diverge.
func TestCompiledFallbacks(t *testing.T) {
	base := casestudy.Baseline()
	scs := scenarios()

	t.Run("unrepresentable option goes slow", func(t *testing.T) {
		knobs := []Knob{
			RetCntKnob("vaulting", []int{2, 4, 8}),
			{
				Name:    "rename",
				Options: []string{"keep", "rename"},
				Apply: func(d *core.Design, i int) error {
					if i == 1 {
						d.Name += " (renamed)"
					}
					return nil
				},
				Revertible: false,
			},
		}
		cs, err := compileSpace(base, knobs, scs, 1)
		if err != nil {
			t.Fatalf("compileSpace: %v", err)
		}
		if !cs.knobSuspect[1][1] || cs.knobSuspect[1][0] {
			t.Errorf("rename suspects = %v, want only option 1", cs.knobSuspect[1])
		}
		ref, err := sliceExhaustive(base, knobs, scs, nil)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := compiledSweep(t, base, knobs, 3, 2).argmin(WorstTotalObjective(), ExhaustiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		solutionsIdentical(t, "rename knob", ref, sol)
	})

	t.Run("device move goes slow", func(t *testing.T) {
		knobs := []Knob{
			RetCntKnob("vaulting", []int{2, 4, 8}),
			{
				Name:    "move",
				Options: []string{"keep", "move"},
				Apply: func(d *core.Design, i int) error {
					if i == 1 {
						for di := range d.Devices {
							if d.Devices[di].Spec.Name == "vault" {
								d.Devices[di].Placement.Site = "elsewhere"
							}
						}
					}
					return nil
				},
			},
		}
		ref, err := sliceExhaustive(base, knobs, scs, nil)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := compiledSweep(t, base, knobs, 2, 1).argmin(WorstTotalObjective(), ExhaustiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		solutionsIdentical(t, "move knob", ref, sol)
	})

	t.Run("apply error aborts identically", func(t *testing.T) {
		boom := errors.New("boom")
		knobs := []Knob{
			RetCntKnob("vaulting", []int{2, 4, 8}),
			{
				Name:    "bomb",
				Options: []string{"ok", "boom"},
				Apply: func(d *core.Design, i int) error {
					if i == 1 {
						return boom
					}
					return nil
				},
			},
		}
		_, refErr := sliceExhaustive(base, knobs, scs, nil)
		if refErr == nil {
			t.Fatal("oracle did not error")
		}
		_, err := compiledSweep(t, base, knobs, 2, 2).argmin(WorstTotalObjective(), ExhaustiveOptions{})
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("batched err = %v, oracle %v", err, refErr)
		}
	})
}

// compiledSweep compiles knobs over base and plans a sweep of the
// whole space on it with the given batch size and worker count.
func compiledSweep(t *testing.T, base *core.Design, knobs []Knob, batch, workers int) *sweep {
	t.Helper()
	cs, err := compileSpace(base, knobs, scenarios(), 1)
	if err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	return gridPoint{cs: cs, batch: batch, workers: workers}.sweep(base, knobs, scenarios(), 0, space)
}

// TestExhaustiveBatchedAllocBudget: the ISSUE 7 gate — once a space is
// compiled, the batched inner loop spends at most 2 allocations per
// candidate amortized over a full search pass (worker accumulators,
// their columnar blocks, and the reduce plumbing included).
func TestExhaustiveBatchedAllocBudget(t *testing.T) {
	base := casestudy.Baseline()
	knobs := compiledKnobs()
	scs := scenarios()
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := compileSpace(base, knobs, scs, 1)
	if err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	objective := WorstTotalObjective()
	sw := gridPoint{cs: cs, batch: defaultBatchSize, workers: 1}.sweep(base, knobs, scs, 0, space)
	search := func() {
		if _, _, err := sw.run(func() sink { return newArgminSink(objective, nil) }, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up, then measure full batched search passes over the space.
	search()
	allocs := testing.AllocsPerRun(5, search)
	perCandidate := allocs / float64(space)
	if perCandidate > 2 {
		t.Errorf("batched search allocates %.2f objects per candidate (%.0f over %d), budget 2",
			perCandidate, allocs, space)
	}
}

// TestDeltaAssessorRejectsOutsideProtocol: changes the cached tables
// cannot carry — renames, moved hardware, spare, facility and workload
// edits, shape changes, multi-sited reconfiguration, invalid policies,
// unknown transports, over-capacity retention — must be refused by both
// callers of the shared row builder: AssessDelta returns ok=false, and a
// compiled space sends the candidate choosing the change to the slow
// path, so the legacy evaluator reproduces the exact outcome or error.
func TestDeltaAssessorRejectsOutsideProtocol(t *testing.T) {
	base := casestudy.Baseline()
	scs := scenarios()
	da, err := core.NewDeltaAssessor(base, scs)
	if err != nil {
		t.Fatal(err)
	}
	tapeLibrary := func(d *core.Design) *device.Spec {
		for i := range d.Devices {
			if d.Devices[i].Spec.Name == device.NameTapeLibrary {
				return &d.Devices[i].Spec
			}
		}
		t.Fatal("no tape library")
		return nil
	}
	cases := map[string]func(d *core.Design){
		"renamed":        func(d *core.Design) { d.Name = "other" },
		"moved-device":   func(d *core.Design) { d.Devices[0].Placement.Site = "elsewhere" },
		"spare":          func(d *core.Design) { tapeLibrary(d).Spare.ProvisionTime += time.Hour },
		"facility":       func(d *core.Design) { d.Facility.CostFactor = 0.5 },
		"workload":       func(d *core.Design) { d.Workload.DataCap *= 2 },
		"dropped-level":  func(d *core.Design) { d.Levels = d.Levels[:2] },
		"invalid-policy": func(d *core.Design) { d.Levels[2].(*protect.Vaulting).Pol.RetCnt = 0 },
		"renamed-spec":   func(d *core.Design) { d.Devices[0].Spec.Name = "imposter" },
		"overloaded":     func(d *core.Design) { tapeLibrary(d).MaxCapSlots = 1 },
		"unknown-transport": func(d *core.Design) {
			d.Levels[2].(*protect.Vaulting).Transport = "nowhere"
		},
		"multi-sited": func(d *core.Design) {
			d.Levels[0] = &protect.ErasureCode{
				Fragments: 2,
				Threshold: 1,
				Sites:     []string{device.NameDiskArray, device.NameTapeLibrary},
				Links:     device.NameAirShipment,
				Pol:       casestudy.SplitMirrorPolicy(),
			}
		},
	}
	for name, mutate := range cases {
		d, err := Clone(base)
		if err != nil {
			t.Fatal(err)
		}
		mutate(d)
		if _, _, ok := da.AssessDelta(d); ok {
			t.Errorf("%s: AssessDelta accepted a change outside the delta protocol", name)
		}

		knob := Knob{
			Name:    name,
			Options: []string{"base", name},
			Apply: func(d *core.Design, i int) error {
				if i == 1 {
					mutate(d)
				}
				return nil
			},
		}
		cs, err := compileSpace(base, []Knob{knob}, scs, 1)
		if err != nil {
			t.Errorf("%s: compileSpace: %v", name, err)
			continue
		}
		if !cs.fill(cs.rb.NewScratch(), cs.kern.NewCols(1), 0, []int{1}) {
			t.Errorf("%s: compiled space carries a change outside the row protocol", name)
		}
	}
}
