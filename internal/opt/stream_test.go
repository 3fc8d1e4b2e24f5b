package opt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// scoreCandidate is the test oracles' scoring path: build the choice
// vector's candidate on a fresh clone and score its evaluation via
// whatif.EvaluateOne.
func scoreCandidate(base *core.Design, knobs []Knob, scenarios []failure.Scenario, objective Objective, choice []int) (units.Money, error) {
	d, err := applyChoice(base, knobs, choice)
	if err != nil {
		return 0, err
	}
	return objective(whatif.EvaluateOne(d, scenarios)), nil
}

// sliceExhaustive is the seed implementation kept as a test oracle: it
// materializes every combination, scores them one by one, and takes the
// first strict minimum in enumeration order. The streaming search must
// be byte-identical to it on every input.
func sliceExhaustive(base *core.Design, knobs []Knob, scs []failure.Scenario, objective Objective) (*Solution, error) {
	objective, err := validate(knobs, scs, objective)
	if err != nil {
		return nil, err
	}
	space := 1
	for _, k := range knobs {
		space *= len(k.Options)
	}
	combos := make([][]int, space)
	cur := make([]int, len(knobs))
	for i := range combos {
		combos[i] = append([]int(nil), cur...)
		for d := len(knobs) - 1; d >= 0; d-- {
			cur[d]++
			if cur[d] < len(knobs[d].Options) {
				break
			}
			cur[d] = 0
		}
	}
	sol := &Solution{Passes: 1, Evaluations: space, Score: units.Money(math.Inf(1)), CandidateIndex: -1}
	for i, c := range combos {
		s, err := scoreCandidate(base, knobs, scs, objective, c)
		if err != nil {
			return nil, err
		}
		if s < sol.Score {
			sol.Score = s
			sol.CandidateIndex = i
		}
	}
	if sol.CandidateIndex < 0 || math.IsInf(float64(sol.Score), 1) {
		return nil, ErrNoFeasible
	}
	tuned, err := applyChoice(base, knobs, combos[sol.CandidateIndex])
	if err != nil {
		return nil, err
	}
	sol.Design = tuned
	for i, k := range knobs {
		sol.Choices = append(sol.Choices, Choice{Knob: k.Name, Option: k.Options[combos[sol.CandidateIndex][i]]})
	}
	return sol, nil
}

// randomKnobs draws a random non-empty knob set from a pool that mixes
// revertible knobs (policy, retention, link counts, a no-op tie knob)
// with the non-revertible PiT swap, so trials exercise both the
// scratch-reuse path and the clone-per-candidate fallback. Pool order is
// preserved so knobs that read level state always run after the knobs
// that set it.
func randomKnobs(rng *rand.Rand) []Knob {
	weeklyVault := casestudy.VaultPolicy()
	weeklyVault.Primary.AccW = units.Week
	weeklyVault.RetCnt = 156

	subset := func(opts []int) []int {
		n := 1 + rng.Intn(len(opts))
		out := append([]int(nil), opts...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out[:n]
	}
	pool := []Knob{
		PolicyKnob("vaulting", []string{"4-weekly", "weekly"},
			[]hierarchy.Policy{casestudy.VaultPolicy(), weeklyVault}),
		RetCntKnob("vaulting", subset([]int{2, 4, 8, 13})),
		RetCntKnob("backup", subset([]int{7, 14, 28})),
		// Generic slot-count knob aimed at the tape library's drive count
		// (Baseline has no WAN links); low drive counts can render a
		// candidate unbuildable, exercising the +Inf scoring path.
		LinkCountKnob("tape-library", subset([]int{4, 8, 12, 16})),
		{
			Name:    "tie",
			Options: []string{"first", "second", "third"},
			Apply:   func(*core.Design, int) error { return nil },
			// Deliberately revertible: a no-op is trivially so, and it
			// forces equal-score runs onto the tie-break rule.
			Revertible: true,
		},
		PiTKnob("split-mirror"),
	}
	var knobs []Knob
	for _, k := range pool {
		if rng.Intn(2) == 0 {
			knobs = append(knobs, k)
		}
	}
	if len(knobs) == 0 {
		knobs = []Knob{pool[3]}
	}
	return knobs
}

// TestExhaustiveStreamingMatchesSliceOracle: on randomized knob spaces
// the streaming search returns byte-identical Solutions to the
// slice-based oracle, at worker counts 1, 4 and 8.
func TestExhaustiveStreamingMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := casestudy.Baseline()
	for trial := 0; trial < 12; trial++ {
		knobs := randomKnobs(rng)
		ref, refErr := sliceExhaustive(base, knobs, scenarios(), nil)
		for _, workers := range []int{1, 4, 8} {
			label := fmt.Sprintf("trial %d workers %d (%d knobs)", trial, workers, len(knobs))
			sol, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{Workers: workers})
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

// TestExhaustiveShardSplitsMergeIdentically: for every shard count m up
// to beyond the space size, running the m shards independently and
// merging them reproduces the unsharded Solution exactly — score,
// choices, global candidate index, and total evaluations.
func TestExhaustiveShardSplitsMergeIdentically(t *testing.T) {
	base := casestudy.Baseline()
	knobs := []Knob{
		RetCntKnob("vaulting", []int{2, 4, 8}),
		LinkCountKnob("tape-library", []int{12, 16}),
		{
			Name:       "tie",
			Options:    []string{"first", "second"},
			Apply:      func(*core.Design, int) error { return nil },
			Revertible: true,
		},
	}
	const space = 3 * 2 * 2
	whole, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for m := 1; m <= space+2; m++ {
		sols := make([]*Solution, m)
		for k := 0; k < m; k++ {
			sol, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{
				Workers: 2,
				Shard:   Shard{Index: k, Count: m},
			})
			switch {
			case err == nil:
				sols[k] = sol
			case errors.Is(err, ErrNoFeasible) && m > space:
				// Empty shard: more shards than candidates.
			default:
				t.Fatalf("shard %d/%d: %v", k, m, err)
			}
		}
		merged, err := MergeShards(sols)
		if err != nil {
			t.Fatalf("merge %d shards: %v", m, err)
		}
		label := fmt.Sprintf("%d shards", m)
		solutionsIdentical(t, label, whole, merged)
		if merged.CandidateIndex != whole.CandidateIndex {
			t.Errorf("%s: candidate index %d, want %d", label, merged.CandidateIndex, whole.CandidateIndex)
		}
	}
	if _, err := MergeShards([]*Solution{nil, nil}); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("all-nil merge: %v, want ErrNoFeasible", err)
	}
	// A Solution outside exhaustive enumeration (Tune's CandidateIndex -1)
	// has no global index and must be rejected, not silently win ties.
	if _, err := MergeShards([]*Solution{whole, {CandidateIndex: -1}}); !errors.Is(err, ErrBadShard) {
		t.Errorf("merge with CandidateIndex -1: %v, want ErrBadShard", err)
	}
}

// TestShardBoundsPartition: shard bounds tile [0, space) exactly — no
// gaps, no overlap, balanced to within one candidate — including when
// shards outnumber candidates.
func TestShardBoundsPartition(t *testing.T) {
	for _, space := range []int{0, 1, 5, 12, 4097} {
		for _, m := range []int{1, 2, 3, 7, 16} {
			next := 0
			for k := 0; k < m; k++ {
				lo, hi := (Shard{Index: k, Count: m}).bounds(space)
				if lo != next || hi < lo {
					t.Fatalf("space %d: shard %d/%d = [%d,%d), want lo %d", space, k, m, lo, hi, next)
				}
				if span := hi - lo; span > space/m+1 {
					t.Errorf("space %d: shard %d/%d has %d candidates, want balanced", space, k, m, span)
				}
				next = hi
			}
			if next != space {
				t.Errorf("space %d: %d shards cover [0,%d), want [0,%d)", space, m, next, space)
			}
		}
	}
}

// TestExhaustiveAllocBudget: the streaming search's per-candidate cost on
// an all-revertible knob space stays under a fixed allocation budget —
// the regression guard for the scratch-design reuse and the
// allocation-lean assess path. The seed implementation spent ~126
// allocations per candidate on this shape of search.
func TestExhaustiveAllocBudget(t *testing.T) {
	base := casestudy.Baseline()
	knobs := []Knob{
		RetCntKnob("vaulting", []int{2, 4, 8, 13}),
		LinkCountKnob("tape-library", []int{8, 12, 16}),
	}
	const candidates = 4 * 3
	scs := scenarios()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ExhaustiveOpts(base, knobs, scs, nil, ExhaustiveOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	perCandidate := allocs / candidates
	if perCandidate > 60 {
		t.Errorf("exhaustive search allocates %.1f objects per candidate, budget 60", perCandidate)
	}
}

// TestExhaustiveScratchReuseIsolation: an all-revertible search reusing
// one scratch design per worker must leave the base design untouched and
// return a Design that is not aliased to the scratch (mutating it must
// not affect a re-run).
func TestExhaustiveScratchReuseIsolation(t *testing.T) {
	base := casestudy.Baseline()
	knobs := []Knob{RetCntKnob("vaulting", []int{2, 4, 8})}
	first, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first.Design.Levels = first.Design.Levels[:1] // vandalize the returned design
	second, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Design.Levels) != len(base.Levels) {
		t.Error("returned design aliases internal state")
	}
	if first.Score != second.Score || first.CandidateIndex != second.CandidateIndex {
		t.Error("re-run diverged after mutating the previous result")
	}
}

// TestMergeShardsDedupesDuplicates: speculative re-dispatch can deliver
// the same shard's Solution twice (two workers raced on a straggler and
// both answered). Identical CandidateIndexes can only be duplicate
// reports of one shard — shards cover disjoint slices — so the merge
// counts each shard once: Evaluations must not double, and the winner is
// unchanged however many copies arrive.
func TestMergeShardsDedupesDuplicates(t *testing.T) {
	base := casestudy.Baseline()
	knobs := []Knob{
		RetCntKnob("vaulting", []int{2, 4, 8}),
		LinkCountKnob("tape-library", []int{12, 16}),
	}
	whole, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const m = 3
	shards := make([]*Solution, 0, 2*m)
	for k := 0; k < m; k++ {
		sol, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{
			Shard: Shard{Index: k, Count: m},
		})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", k, m, err)
		}
		shards = append(shards, sol)
		if k == 1 {
			dup := *sol // duplicate speculative report of shard 1
			shards = append(shards, &dup)
		}
	}
	shards = append(shards, shards[0]) // and a late duplicate of shard 0
	merged, err := MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	solutionsIdentical(t, "deduped merge", whole, merged)
	if merged.Evaluations != whole.Evaluations {
		t.Errorf("Evaluations = %d, want %d (duplicates must not be double-counted)",
			merged.Evaluations, whole.Evaluations)
	}
	if merged.CandidateIndex != whole.CandidateIndex {
		t.Errorf("CandidateIndex = %d, want %d", merged.CandidateIndex, whole.CandidateIndex)
	}
}

// TestExhaustiveProgressCounter: the optional Progress counter ends at
// exactly the number of retired candidates — assessed plus pruned — on
// both sweep paths. It is what a worker streams in heartbeats, so it
// must track Evaluations + CandidatesPruned.
func TestExhaustiveProgressCounter(t *testing.T) {
	retCnt := make([]int, 512)
	for i := range retCnt {
		retCnt[i] = i + 1
	}
	cases := []struct {
		name  string
		knobs []Knob
		opts  ExhaustiveOptions
	}{
		{"6 candidates, clone+build", []Knob{
			RetCntKnob("vaulting", []int{2, 4, 8}),
			LinkCountKnob("tape-library", []int{12, 16}),
		}, ExhaustiveOptions{Workers: 4}},
		{"6144 candidates, compiled and pruned",
			append(table7Knobs(), RetCntKnob("vaulting", retCnt)),
			ExhaustiveOptions{Workers: 4, Prune: true, Floor: WorstTotalFloor()}},
	}
	for _, c := range cases {
		var progress atomic.Int64
		c.opts.Progress = &progress
		sol, err := ExhaustiveOpts(casestudy.Baseline(), c.knobs, scenarios(), nil, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := progress.Load(), int64(sol.Evaluations+sol.CandidatesPruned); got != want {
			t.Errorf("%s: progress = %d, want %d (%d assessed + %d pruned)",
				c.name, got, want, sol.Evaluations, sol.CandidatesPruned)
		}
		if c.opts.Prune && sol.CandidatesPruned == 0 {
			t.Errorf("%s: nothing pruned; the row does not exercise pruned batches", c.name)
		}
	}
}
