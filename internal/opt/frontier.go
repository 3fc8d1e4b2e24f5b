package opt

import (
	"fmt"
	"sort"
	"time"

	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// This file implements the Pareto frontier mode of the knob-space
// search: instead of folding candidates into a scalar argmin, Frontier
// streams the whole space and keeps the full RT/DL/cost non-dominated
// surface. Memory stays O(frontier + workers): each worker maintains a
// streaming non-dominated set over its slice of the enumeration, and
// the sets merge exactly like the argmin accumulators do. Pruning
// against a frontier generalizes pruning against a scalar incumbent —
// a batch is skipped when an already achieved point dominates the
// batch's component floor (bound.go) with strictly lower outlays,
// which proves every candidate in the batch strictly dominated.

// FrontierPoint is one non-dominated candidate on the RT/DL/cost
// surface. RecoveryTime and DataLoss are the candidate's worst case
// across the searched scenarios; Outlays are its scenario-independent
// annual outlays.
type FrontierPoint struct {
	// CandidateIndex is the point's global index in the mixed-radix
	// enumeration — the same index Exhaustive reports, so a frontier
	// point can be re-run or cross-referenced against a Solution.
	CandidateIndex int
	Choices        []Choice
	RecoveryTime   time.Duration
	DataLoss       time.Duration
	Outlays        units.Money
}

// FrontierResult is one Frontier sweep's outcome: the canonical
// non-dominated surface plus the candidate accounting. Every candidate
// of the searched slice is either assessed or pruned, so Evaluations
// plus CandidatesPruned equals the slice size; the split between them
// (and BoundsComputed) depends on scheduling, Points never does.
type FrontierResult struct {
	// Points is sorted by ascending Outlays, then RecoveryTime, then
	// DataLoss, then CandidateIndex. Distinct points never share all
	// three coordinates: exact ties collapse to the lowest candidate
	// index.
	Points           []FrontierPoint
	Evaluations      int
	CandidatesPruned int
	BoundsComputed   int
}

// FrontierOpts configures Frontier. The zero value searches the whole
// space on all CPUs without pruning.
type FrontierOpts struct {
	// Workers caps the evaluation goroutines; anything < 1 means
	// runtime.NumCPU().
	Workers int
	// Budget, when > 0, bounds the total space size (not the shard's
	// slice), as in ExhaustiveOptions.Budget.
	Budget int
	// Shard restricts the sweep to one contiguous slice of the space;
	// disjoint shards' results combine with MergeFrontiers into exactly
	// the unsharded surface.
	Shard Shard
	// Prune enables dominance pruning on the compiled batched path: a
	// batch whose component floor (see SubtreeFloor) is strictly
	// dominated by an already achieved point — or provably loses the
	// whole object under some scenario — is retired wholesale without
	// assessment. Pruning never changes Points, only the
	// Evaluations/CandidatesPruned split. Like ExhaustiveOptions.Prune
	// it compiles whatever the slice size, and silently runs unpruned
	// when the space cannot be compiled or bounded.
	Prune bool
}

// fpoint is the internal, choices-free frontier coordinate set.
type fpoint struct {
	idx int
	rt  time.Duration
	dl  time.Duration
	out units.Money
}

// frontierSet is a streaming non-dominated set. add keeps the
// invariant that no member dominates another and that exact coordinate
// ties hold only the lowest candidate index; because dominance (with
// the index tie-break) is transitive, the surviving set is exactly
//
//	{q : no inserted p has p ≤ q on all three axes
//	     with a strict inequality somewhere or a lower index}
//
// independent of insertion order — which is what makes worker counts,
// batch sizes and shard splits invisible in the result.
type frontierSet struct {
	pts []fpoint
}

// add folds one achieved point into the set.
func (f *frontierSet) add(q fpoint) {
	for i := range f.pts {
		p := &f.pts[i]
		if p.out <= q.out && p.rt <= q.rt && p.dl <= q.dl {
			if p.out < q.out || p.rt < q.rt || p.dl < q.dl || p.idx <= q.idx {
				return // q dominated, or a duplicate of an earlier index
			}
		}
	}
	keep := f.pts[:0]
	for _, p := range f.pts {
		if q.out <= p.out && q.rt <= p.rt && q.dl <= p.dl {
			if q.out < p.out || q.rt < p.rt || q.dl < p.dl || q.idx < p.idx {
				continue // p now dominated by q (or its lower-index duplicate)
			}
		}
		keep = append(keep, p)
	}
	f.pts = append(keep, q)
}

// addResult folds one evaluated candidate onto the surface: candidates
// that fail to build or lose the whole object under any scenario are
// excluded, everything else contributes its worst-case recovery time
// and data loss plus its outlays.
func (f *frontierSet) addResult(idx int, res *whatif.Result) {
	if res.Err != nil || len(res.Outcomes) == 0 {
		return
	}
	var rt, dl time.Duration
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Lost {
			return
		}
		if o.RecoveryTime > rt {
			rt = o.RecoveryTime
		}
		if o.DataLoss > dl {
			dl = o.DataLoss
		}
	}
	f.add(fpoint{idx: idx, rt: rt, dl: dl, out: res.Outlays})
}

// merge folds set b into f.
func (f *frontierSet) merge(b *frontierSet) {
	for _, p := range b.pts {
		f.add(p)
	}
}

// pruneAgainst reports whether the whole batch behind floor fl can be
// retired unassessed: either some scenario floor proves certain
// whole-object loss (no such candidate is ever on the surface), or an
// achieved point dominates the floor with strictly lower outlays —
// then it strictly dominates every candidate in the batch (each is at
// or above the floor on every axis), so none can reach the surface,
// nor tie an existing point's coordinates for the index tie-break. The
// boundSlack guard mirrors the scalar prune test, absorbing float
// non-associativity between the floor's outlay fold order and fill's.
func (f *frontierSet) pruneAgainst(fl *SubtreeFloor) bool {
	var floorRT, floorDL time.Duration
	for si := range fl.Scenarios {
		if fl.Lost[si] {
			return true
		}
		if fl.RecoveryTime[si] > floorRT {
			floorRT = fl.RecoveryTime[si]
		}
		if fl.DataLoss[si] > floorDL {
			floorDL = fl.DataLoss[si]
		}
	}
	cut := float64(fl.Outlays) * (1 - boundSlack)
	for _, p := range f.pts {
		if p.rt <= floorRT && p.dl <= floorDL && float64(p.out) < cut {
			return true
		}
	}
	return false
}

// frontierSink is one worker's sweep sink for Frontier: a streaming
// non-dominated set that, with a pruner, retires a batch whose
// component floor an achieved local point strictly dominates. Pruning
// needs no seed pass and no shared incumbent: each worker prunes
// against its own achieved points, so batches are bounded only once a
// local point exists that could dominate them.
type frontierSink struct {
	frontierSet
	pr *pruner
	ps *pruneScratch
}

func (s *frontierSink) skip(blo, bhi int) (bool, bool) {
	if s.pr == nil || len(s.pts) == 0 || !s.pr.bound(s.ps, blo, bhi) {
		return false, false
	}
	return true, s.pruneAgainst(&s.ps.fl)
}

func (s *frontierSink) add(idx int, res *whatif.Result) { s.addResult(idx, res) }

func (s *frontierSink) merge(other sink) { s.frontierSet.merge(&other.(*frontierSink).frontierSet) }

// Frontier sweeps every knob combination (or one Shard of them) and
// returns the full RT/DL/cost non-dominated surface: the candidates
// not dominated — on worst-case recovery time, worst-case data loss
// and annual outlays together, no axis worse and at least one strictly
// better — by any other candidate of the space. Candidates that fail
// to build or lose the whole object under any scenario are excluded.
// Exact coordinate ties collapse to the lowest global candidate index,
// and Points comes back canonically sorted, so the surface is
// byte-identical for every worker count, batch size and shard split.
//
// Enumeration is the exhaustive search's sweep (see sweep.go) with the
// argmin sink replaced by a streaming non-dominated set: compiled
// batches when the space compiles (with optional dominance pruning,
// see FrontierOpts.Prune), clone+build rows otherwise. No Objective is
// involved — the frontier is the set a decision-maker picks from before
// committing to one.
func Frontier(base *core.Design, knobs []Knob, scenarios []failure.Scenario, opts FrontierOpts) (*FrontierResult, error) {
	if _, err := validate(knobs, scenarios, nil); err != nil {
		return nil, err
	}
	if err := opts.Shard.Validate(); err != nil {
		return nil, err
	}
	space, err := spaceSize(knobs)
	if err != nil {
		return nil, err
	}
	if opts.Budget > 0 && space > opts.Budget {
		return nil, fmt.Errorf("%w: %d combinations > budget %d; raise the budget or shard the space",
			ErrSpaceTooLarge, space, opts.Budget)
	}
	lo, hi := opts.Shard.bounds(space)
	set, tally, err := newSweep(base, knobs, scenarios, lo, hi, opts.Workers, opts.Prune).frontier(opts.Prune)
	if err != nil {
		return nil, err
	}
	return assembleFrontier(set, knobs, tally), nil
}

// frontier runs the sweep with frontier sinks, pruning by dominance when
// prune is set and the space compiled.
func (sw *sweep) frontier(prune bool) (*frontierSet, searchTally, error) {
	var pr *pruner
	if prune && sw.cs != nil {
		pr = newPruner(sw.cs, nil, 0)
	}
	final, tally, err := sw.run(func() sink {
		s := &frontierSink{pr: pr}
		if pr != nil {
			s.ps = pr.newScratch()
		}
		return s
	}, nil)
	if err != nil {
		return nil, tally, err
	}
	return &final.(*frontierSink).frontierSet, tally, nil
}

// assembleFrontier decodes each surviving point's choices and sorts
// the surface canonically.
func assembleFrontier(set *frontierSet, knobs []Knob, tally searchTally) *FrontierResult {
	fr := &FrontierResult{
		Evaluations:      tally.evals,
		CandidatesPruned: tally.pruned,
		BoundsComputed:   tally.bounds,
	}
	choice := make([]int, len(knobs))
	for _, p := range set.pts {
		decodeChoice(choice, knobs, p.idx)
		choices := make([]Choice, len(knobs))
		for i, k := range knobs {
			choices[i] = Choice{Knob: k.Name, Option: k.Options[choice[i]]}
		}
		fr.Points = append(fr.Points, FrontierPoint{
			CandidateIndex: p.idx,
			Choices:        choices,
			RecoveryTime:   p.rt,
			DataLoss:       p.dl,
			Outlays:        p.out,
		})
	}
	sort.Slice(fr.Points, func(i, j int) bool {
		a, b := &fr.Points[i], &fr.Points[j]
		if a.Outlays != b.Outlays {
			return a.Outlays < b.Outlays
		}
		if a.RecoveryTime != b.RecoveryTime {
			return a.RecoveryTime < b.RecoveryTime
		}
		if a.DataLoss != b.DataLoss {
			return a.DataLoss < b.DataLoss
		}
		return a.CandidateIndex < b.CandidateIndex
	})
	return fr
}

// MergeFrontiers combines the per-shard results of one sharded
// Frontier sweep over disjoint shards into exactly the unsharded
// surface: points re-filter for dominance across shards, exact
// coordinate ties collapse to the lowest candidate index, and the
// counters sum. Nil entries (shards that returned nothing) are
// skipped; merging zero results yields an empty surface.
func MergeFrontiers(knobs []Knob, frs []*FrontierResult) *FrontierResult {
	var set frontierSet
	var tally searchTally
	for _, fr := range frs {
		if fr == nil {
			continue
		}
		for i := range fr.Points {
			p := &fr.Points[i]
			set.add(fpoint{idx: p.CandidateIndex, rt: p.RecoveryTime, dl: p.DataLoss, out: p.Outlays})
		}
		tally.evals += fr.Evaluations
		tally.pruned += fr.CandidatesPruned
		tally.bounds += fr.BoundsComputed
	}
	return assembleFrontier(&set, knobs, tally)
}
