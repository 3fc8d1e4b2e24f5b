package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/chaos"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/mc"
	"stordep/internal/opt"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// defaultSeed is the seed the stored references were recorded with.
const defaultSeed = 1

// mcTrials is the trial count of every Monte Carlo campaign the
// montecarlo workload samples from, the size of a default cmd/montecarlo
// run.
const mcTrials = 1000

// retentionOptions is the size of the vault-retention knob that widens
// the Table 7 space (12 combinations) to 6144 candidates.
const retentionOptions = 512

// searchPeriod is the length of the search workload's op cycle: one
// op per objective.
const searchPeriod = 3

// inputs is everything the benchmark derives from the workload seed.
// The program under test receives only these values.
type inputs struct {
	// retOffset is the smallest vault retention count of the search
	// space: the knob offers retOffset .. retOffset+511 retained fulls.
	retOffset int
	// objOrder permutes the three search objectives.
	objOrder []int
	// caseShuffle orders the cases within each stratum of the chaos
	// catalogue.
	caseShuffle int64
	// campBase is the seed of the first Monte Carlo campaign; campaign k
	// uses campBase+k.
	campBase int64
	// probeSeed drives the inputs of the traced run's layer probes.
	probeSeed int64
}

func newInputs(seed int64) inputs {
	r := rand.New(rand.NewSource(seed))
	return inputs{
		retOffset:   1 + r.Intn(64),
		objOrder:    r.Perm(3),
		caseShuffle: r.Int63(),
		// Drawn from a wide range, so runs with different seeds share no
		// Monte Carlo campaign.
		campBase:  r.Int63n(1 << 40),
		probeSeed: r.Int63(),
	}
}

// workload is one benchmark workload: a closed loop with one client
// calls op(0), op(1), ... one at a time.
type workload interface {
	// op runs op i and returns a fingerprint of its output. An error
	// means the op failed: the call errored or a built-in correctness
	// check (invariant ledger, cross-path agreement) rejected it.
	op(i int, tr *tracer) (string, error)
	// finish runs at the end of the timed phase, inside it, after the
	// last op; a failure is charged to that op.
	finish(tr *tracer) error
	// verify runs after the timed phase and cross-checks outputs that
	// need no stored reference. It returns how many leading ops the
	// check covered, all of which fail if the check does.
	verify() (int, error)
}

var workloadNames = []string{"search", "chaos", "montecarlo"}

func newWorkload(name string, in inputs, refs *references) (workload, error) {
	switch name {
	case "search":
		return newSearch(in), nil
	case "chaos":
		return newChaos(in, refs.Chaos)
	case "montecarlo":
		return &mcWL{in: in, design: casestudy.Baseline()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---- search ----

type objective struct {
	name  string
	score opt.Objective
	floor opt.ObjectiveFloor
}

type searchWL struct {
	in    inputs
	base  *core.Design
	knobs []opt.Knob
	scs   []failure.Scenario
	objs  []objective
}

// constrainedObjectives are the recovery objectives of the
// constrained-outlay search: loose enough that part of the space
// conforms, tight enough that most of it does not.
var constrainedObjectives = whatif.Objectives{RTO: 3 * 24 * time.Hour, RPO: 2 * units.Week}

func newSearch(in inputs) *searchWL {
	return &searchWL{
		in:    in,
		base:  casestudy.Baseline(),
		knobs: largeKnobs(in.retOffset),
		scs:   []failure.Scenario{{Scope: failure.ScopeArray}, {Scope: failure.ScopeSite}},
		objs: []objective{
			{"worst", opt.WorstTotalObjective(), opt.WorstTotalFloor()},
			{"expected", opt.ExpectedObjective(whatif.TypicalFrequencies()), opt.ExpectedFloor(whatif.TypicalFrequencies())},
			{"constrained", opt.ConstrainedOutlayObjective(constrainedObjectives), opt.ConstrainedOutlayFloor(constrainedObjectives)},
		},
	}
}

// tableSevenKnobs is the Table 7 knob space (2 x 3 x 2 = 12
// combinations), the moves cmd/optimize tunes.
func tableSevenKnobs() []opt.Knob {
	weeklyVault := casestudy.VaultPolicy()
	weeklyVault.Primary.AccW = units.Week
	weeklyVault.Primary.HoldW = 12 * time.Hour
	weeklyVault.RetCnt = 156

	dailyF := casestudy.BackupPolicy()
	dailyF.Primary.AccW = 24 * time.Hour
	dailyF.Primary.PropW = 12 * time.Hour
	dailyF.RetCnt = 28

	fi := casestudy.BackupPolicy()
	fi.Primary.AccW = 48 * time.Hour
	fi.Primary.PropW = 48 * time.Hour
	fi.Secondary = &hierarchy.WindowSet{
		AccW: 24 * time.Hour, PropW: 12 * time.Hour, HoldW: time.Hour,
		Rep: hierarchy.RepPartial,
	}
	fi.CycleCnt = 5

	return []opt.Knob{
		opt.PolicyKnob("vaulting",
			[]string{"4-weekly", "weekly"},
			[]hierarchy.Policy{casestudy.VaultPolicy(), weeklyVault}),
		opt.PolicyKnob("backup",
			[]string{"weekly full", "F+I", "daily full"},
			[]hierarchy.Policy{casestudy.BackupPolicy(), fi, dailyF}),
		opt.PiTKnob("split-mirror"),
	}
}

// largeKnobs is the 6144-candidate space: Table 7 times 512 vault
// retention counts starting at offset.
func largeKnobs(offset int) []opt.Knob {
	ret := make([]int, retentionOptions)
	for i := range ret {
		ret[i] = offset + i
	}
	return append(tableSevenKnobs(), opt.RetCntKnob("vaulting", ret))
}

// op searches the space for op i's objective twice, with and without
// pruning. Pruning must not change the answer, so the two searches are
// one op: the op fails when their answers differ.
func (w *searchWL) op(i int, tr *tracer) (string, error) {
	o := w.objs[w.in.objOrder[i%len(w.objs)]]
	pruned, err := w.search(i, o, true, tr)
	if err != nil {
		return "", err
	}
	full, err := w.search(i, o, false, tr)
	if err != nil {
		return "", err
	}
	if full != pruned {
		return pruned, fmt.Errorf("search %s: unpruned answer %s, pruned %s", o.name, full, pruned)
	}
	return pruned, nil
}

// search runs one exhaustive search and returns the fingerprint of its
// answer: objective, winning candidate index and the score's bits.
func (w *searchWL) search(i int, o objective, prune bool, tr *tracer) (string, error) {
	var stats opt.SearchStats
	opts := opt.ExhaustiveOptions{Workers: 1, Prune: prune, Stats: &stats}
	if prune {
		opts.Floor = o.floor
	}
	t0 := tr.begin()
	sol, err := opt.ExhaustiveOpts(w.base, w.knobs, w.scs, o.score, opts)
	tr.end("opt.ExhaustiveOpts", i, t0)
	if err != nil {
		return "", fmt.Errorf("search %s (prune %v): %w", o.name, prune, err)
	}
	tr.add("opt.searches", 1)
	tr.add("opt.assessed", float64(stats.Assessed))
	if prune {
		tr.add("opt.pruned_searches", 1)
		tr.add("opt.pruned", float64(stats.Pruned))
		tr.add("opt.pruned_space", float64(stats.Assessed+stats.Pruned))
		tr.add("opt.bounds_computed", float64(stats.BoundsComputed))
	}
	return fmt.Sprintf("%s/%d/%016x", o.name, sol.CandidateIndex, math.Float64bits(float64(sol.Score))), nil
}

func (w *searchWL) finish(*tracer) error { return nil }
func (w *searchWL) verify() (int, error) { return 0, nil }

// ---- chaos ----

// chaosWL runs one correlated multi-object chaos case per op. Case
// costs span more than two orders of magnitude, so a time-bounded run
// that drew cases freely would measure which cases it drew. Cases come
// instead from the recorded catalogue: op i takes the next stratum in a
// fixed order that spreads every prefix across the cost range, and the
// seed only chooses which case of the stratum runs.
type chaosWL struct {
	strata [][]chaosCase
	order  []int   // stratum visiting order
	perm   [][]int // per stratum, the seed's case order
}

func newChaos(in inputs, strata [][]chaosCase) (*chaosWL, error) {
	if len(strata) == 0 {
		return nil, errors.New("chaos: the case catalogue is empty")
	}
	r := rand.New(rand.NewSource(in.caseShuffle))
	w := &chaosWL{strata: strata, order: spreadOrder(len(strata))}
	for _, s := range strata {
		w.perm = append(w.perm, r.Perm(len(s)))
	}
	return w, nil
}

// spreadOrder returns 0..n-1 in bit-reversed order, so that every
// prefix samples the whole range evenly, rotated to start at n/2: the
// first op, which set-up runs as its warm-up, is a case of median cost.
func spreadOrder(n int) []int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	out := make([]int, 0, n)
	for k := 0; k < 1<<bits; k++ {
		r := 0
		for b := 0; b < bits; b++ {
			if k&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		if r < n {
			out = append(out, (r+n/2)%n)
		}
	}
	return out
}

// caseFor returns op i's catalogue case.
func (w *chaosWL) caseFor(i int) chaosCase {
	s := w.order[i%len(w.order)]
	round := i / len(w.order)
	return w.strata[s][w.perm[s][round%len(w.strata[s])]]
}

func (w *chaosWL) op(i int, tr *tracer) (string, error) {
	c := w.caseFor(i)
	fp, err := runCase(c.Seed, tr, i)
	if err != nil {
		return fp, err
	}
	if fp != c.Digest {
		return fp, fmt.Errorf("chaos case %d: digest %s, catalogue %s", c.Seed, fp, c.Digest)
	}
	return fp, nil
}

// runCase runs chaos case seed as a one-run correlated multi-object
// campaign and returns its digest. Any invariant violation, or a case
// that checked nothing, is an error.
func runCase(seed int64, tr *tracer, op int) (string, error) {
	c := &chaos.Campaign{Seed: seed, Runs: 1, Workers: 1, Multi: true, Correlated: true}
	t0 := tr.begin()
	sum, err := c.Run()
	tr.end("chaos.Campaign.Run", op, t0)
	if err != nil {
		return "", err
	}
	checks := 0
	for _, n := range sum.Checks {
		checks += n
	}
	tr.add("chaos.cases", 1)
	tr.add("chaos.checks", float64(checks))
	tr.add("chaos.bounds_skipped", float64(sum.SkippedBounds))
	tr.add("chaos.resamples", float64(sum.Resamples))
	tr.add("chaos.generated", float64(sum.Resamples+1))
	fp := fmt.Sprintf("%016x", sum.Digest)
	if len(sum.Violations) > 0 {
		v := sum.Violations[0]
		return fp, fmt.Errorf("chaos case %d: %d violations, first [%s] %s", seed, len(sum.Violations), v.Invariant, v.Detail)
	}
	if checks == 0 {
		return fp, fmt.Errorf("chaos case %d: no invariant was checked", seed)
	}
	return fp, nil
}

func (w *chaosWL) finish(*tracer) error { return nil }
func (w *chaosWL) verify() (int, error) { return 0, nil }

// ---- montecarlo ----

// mcVerifyTrials is how many leading trials verify re-runs as a whole
// campaign through Campaign.Run.
const mcVerifyTrials = 100

type mcWL struct {
	in     inputs
	design *core.Design
	camp   *mc.Campaign
	obs    []mc.Obs // the current campaign's observations so far
	first  []mc.Obs // campaign 0's leading observations, for verify
	lastOp int
}

func (w *mcWL) campaign(k int) *mc.Campaign {
	return &mc.Campaign{Design: w.design, Seed: w.in.campBase + int64(k), Trials: mcTrials, Workers: 1}
}

func (w *mcWL) op(i int, tr *tracer) (string, error) {
	k, t := i/mcTrials, i%mcTrials
	if t == 0 {
		w.camp, w.obs = w.campaign(k), w.obs[:0]
	}
	t0 := tr.begin()
	obs, err := w.camp.Sample(t, t+1)
	tr.end("mc.Campaign.Sample", i, t0)
	if err != nil {
		return "", err
	}
	o := obs[0]
	w.obs, w.lastOp = append(w.obs, o), i
	if k == 0 && t < mcVerifyTrials {
		w.first = append(w.first[:t], o)
	}
	tr.add("mc.trials", 1)
	tr.add("mc.events", float64(o.Events))
	tr.add("mc.bound_checks", float64(o.BoundChecks))
	tr.add("mc.bound_skips", float64(o.BoundSkips))
	tr.add("mc.bound_considered", float64(o.BoundChecks+o.BoundSkips))
	fp := fmt.Sprintf("%016x", mc.Digest(obs))
	if o.BoundViolations > 0 {
		return fp, fmt.Errorf("mc campaign %d trial %d: %d bound violations", w.camp.Seed, t, o.BoundViolations)
	}
	if t == mcTrials-1 {
		return w.fold(i, tr)
	}
	return fp, nil
}

// fold estimates the current campaign from its observations and
// returns the report's fingerprint: the digest over all observations
// and a hash of the rendered report.
func (w *mcWL) fold(i int, tr *tracer) (string, error) {
	t0 := tr.begin()
	rep, err := w.camp.Estimate(w.obs)
	tr.end("mc.Campaign.Estimate", i, t0)
	if err != nil {
		return "", err
	}
	if rep.Digest != mc.Digest(w.obs) || rep.Trials != len(w.obs) || rep.BoundViolations != 0 {
		return "", fmt.Errorf("mc campaign %d: report does not match its %d observations", w.camp.Seed, len(w.obs))
	}
	h := fnv.New64a()
	h.Write([]byte(rep.String()))
	return fmt.Sprintf("%016x/%016x", rep.Digest, h.Sum64()), nil
}

// finish folds the campaign the timed phase ended in.
func (w *mcWL) finish(tr *tracer) error {
	if len(w.obs) == 0 || len(w.obs) == mcTrials {
		return nil
	}
	_, err := w.fold(w.lastOp, tr)
	return err
}

// verify checks that campaign 0's leading trials, sampled one at a time
// and folded, equal the same campaign run whole.
func (w *mcWL) verify() (int, error) {
	n := len(w.first)
	if n == 0 {
		return 0, nil
	}
	c := w.campaign(0)
	c.Trials = n
	whole, err := c.Run()
	if err != nil {
		return n, err
	}
	folded, err := c.Estimate(w.first)
	if err != nil {
		return n, err
	}
	if whole.String() != folded.String() || whole.Digest != folded.Digest {
		return n, errors.New("per-trial samples do not fold to Campaign.Run")
	}
	return n, nil
}
