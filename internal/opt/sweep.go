package opt

import (
	"math"
	"sync/atomic"

	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/parallel"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// This file is the one enumeration sweep behind ExhaustiveOpts and
// Frontier. A sweep retires every candidate of a global index range
// [lo, hi) in batches on the worker pool. Each worker owns a scorer,
// which fills a batch's rows from the compiled space (compile.go) and
// assesses them in one core.BatchKernel call; rows the tables cannot
// carry, and every row when there is no compiled space, take the
// clone+build path one at a time. Each worker also owns a sink, which
// folds the scored candidates (the argmin below, the non-dominated set
// in frontier.go) and may retire a whole batch unassessed when the
// pruner's bound (bound.go) proves nothing in it can matter.

// compileCost is the compile pass's own clone+build work, in
// candidates: one footprint diff per knob option plus the probe
// verification. Compiling pays only for slices larger than this.
func compileCost(knobs []Knob) int {
	c := compileProbes
	for _, k := range knobs {
		c += len(k.Options)
	}
	return c
}

// sweep is one planned enumeration of the candidate slice [lo, hi):
// the inputs every worker's scorer shares, the compiled space when
// there is one, and the batch size. Batches hold one candidate when
// the space is uncompiled, which keeps the pool's load balancing,
// Progress ticks and lowest-index error order per candidate.
type sweep struct {
	base    *core.Design
	knobs   []Knob
	scs     []failure.Scenario
	reuse   bool           // every knob Revertible: reuse one scratch design per worker
	cs      *compiledSpace // nil: every row takes clone+build
	lo, hi  int
	batch   int
	workers int
}

// newSweep plans the sweep of [lo, hi). It compiles the space when the
// slice holds more candidates than compileCost, or when force is set
// (a pruned search, whose bounds need the compiled tables). Compilation
// is strictly an accelerator: any compile failure leaves cs nil and
// the sweep exact on the clone+build path.
func newSweep(base *core.Design, knobs []Knob, scs []failure.Scenario, lo, hi, workers int, force bool) *sweep {
	sw := &sweep{base: base, knobs: knobs, scs: scs, reuse: allRevertible(knobs),
		lo: lo, hi: hi, batch: 1, workers: workers}
	n := hi - lo
	if n <= 0 || !(force || n > compileCost(knobs)) {
		return sw
	}
	var err error
	phase(labelsCompile, func() { sw.cs, err = compileSpace(base, knobs, scs, workers) })
	if err != nil {
		sw.cs = nil
		return sw
	}
	sw.batch = min(defaultBatchSize, n)
	return sw
}

// scorer is one worker's candidate scorer: the compiled row block and
// kernel scratch when the sweep has a compiled space, and the
// clone+build machinery for rows the tables cannot carry.
type scorer struct {
	sw     *sweep
	choice []int
	candidate
	cols *core.Cols
	rs   *core.RowScratch
	bs   core.BatchScratch
	slow []bool
}

func (sw *sweep) newScorer() *scorer {
	s := &scorer{sw: sw, choice: make([]int, len(sw.knobs)), slow: make([]bool, sw.batch)}
	if sw.cs != nil {
		s.cols = sw.cs.kern.NewCols(sw.batch)
		s.rs = sw.cs.rb.NewScratch()
	}
	return s
}

// rowScorer is a one-row scorer over cs, for the single-row passes
// (compile probes, incumbent seeding) that score spread candidates.
func (cs *compiledSpace) rowScorer() *scorer {
	return (&sweep{base: cs.base, knobs: cs.knobs, scs: cs.scs, cs: cs, batch: 1}).newScorer()
}

// fillRow decodes candidate idx into s.choice and, with a compiled
// space, fills row r from the tables; the row is marked slow when
// there is no compiled space or the tables cannot carry it.
// Allocation-free.
func (s *scorer) fillRow(r, idx int) {
	decodeChoice(s.choice, s.sw.knobs, idx)
	s.slow[r] = s.sw.cs == nil || s.sw.cs.fill(s.rs, s.cols, r, s.choice)
}

// assess fills rows [0, m) with candidates blo.. and assesses them in
// one AssessBatch call (slow rows are skipped by the kernel). A no-op
// without a compiled space.
func (s *scorer) assess(blo, m int) {
	cs := s.sw.cs
	if cs == nil {
		return
	}
	phase(labelsBatch, func() {
		for r := 0; r < m; r++ {
			s.fillRow(r, blo+r)
		}
		cs.kern.AssessBatch(m, s.cols, &s.bs)
	})
}

// result returns row r's evaluation — candidate idx — in s.res: the
// assessed briefs for a compiled row, the clone+build evaluation for a
// slow one (whose apply errors abort the sweep, exactly as a serial
// clone+build loop would).
func (s *scorer) result(r, idx int) (*whatif.Result, error) {
	sw := s.sw
	if sw.cs == nil || s.slow[r] {
		decodeChoice(s.choice, sw.knobs, idx)
		if err := s.evaluate(sw.base, sw.knobs, sw.scs, s.choice, sw.reuse); err != nil {
			return nil, err
		}
		return &s.res, nil
	}
	// Knobs that could rename the design are unrepresentable, so
	// compiled rows keep the base name — exactly what clone+build
	// records.
	ns := len(sw.scs)
	s.res.SetBriefs(sw.base.Name, s.cols.OutlaysTotal[r], sw.scs, s.bs.Briefs[r*ns:(r+1)*ns])
	return &s.res, nil
}

// sink is one worker's fold of scored candidates. A sweep calls skip
// before assessing each batch, add for each assessed candidate in
// ascending index order, and merge to combine workers, left to right.
type sink interface {
	// skip reports whether a bound was computed for the batch [blo, bhi)
	// and whether it retires the whole batch unassessed.
	skip(blo, bhi int) (computed, pruned bool)
	add(idx int, res *whatif.Result)
	merge(other sink)
}

// searchTally is the candidate accounting of one sweep: assessed
// candidates, candidates pruned wholesale, and subtree bounds computed.
type searchTally struct {
	evals  int
	pruned int
	bounds int
}

// sweepAcc is one worker's parallel.Reduce accumulator.
type sweepAcc struct {
	*scorer
	sink sink
	searchTally
}

// run retires every candidate of [lo, hi) into per-worker sinks made by
// newSink and returns their merge. Batches keep parallel.Reduce's
// lowest-index-first error semantics and rows are added in ascending
// index order, so any sink whose merge is insensitive to partitioning
// returns the same result for every worker count and batch size.
// progress, when non-nil, advances once per retired batch by its size.
func (sw *sweep) run(newSink func() sink, progress *atomic.Int64) (sink, searchTally, error) {
	nb := (sw.hi - sw.lo + sw.batch - 1) / sw.batch
	acc := func() *sweepAcc { return &sweepAcc{scorer: sw.newScorer(), sink: newSink()} }
	fold := func(a *sweepAcc, bi int) (*sweepAcc, error) {
		blo := sw.lo + bi*sw.batch
		m := min(sw.batch, sw.hi-blo)
		var computed, pruned bool
		phase(labelsPrune, func() { computed, pruned = a.sink.skip(blo, blo+m) })
		if computed {
			a.bounds++
		}
		if pruned {
			a.pruned += m
		} else {
			a.assess(blo, m)
			for r := 0; r < m; r++ {
				res, err := a.result(r, blo+r)
				if err != nil {
					return a, err
				}
				a.sink.add(blo+r, res)
			}
			a.evals += m
		}
		if progress != nil {
			progress.Add(int64(m))
		}
		return a, nil
	}
	merge := func(a, b *sweepAcc) *sweepAcc {
		phase(labelsReduce, func() {
			a.sink.merge(b.sink)
			a.evals += b.evals
			a.pruned += b.pruned
			a.bounds += b.bounds
		})
		return a
	}
	final, err := parallel.Reduce(sw.workers, nb, acc, fold, merge)
	if err != nil {
		return nil, searchTally{}, err
	}
	return final.sink, final.searchTally, nil
}

// argminSink folds the lowest objective score, ties broken to the
// lowest candidate index. With a pruner it retires batches whose bound
// exceeds the shared incumbent, and offers every new local best to it.
type argminSink struct {
	objective Objective
	pr        *pruner
	ps        *pruneScratch
	score     units.Money
	idx       int // global candidate index; -1 = none yet
}

func newArgminSink(objective Objective, pr *pruner) *argminSink {
	s := &argminSink{objective: objective, pr: pr, score: units.Money(math.Inf(1)), idx: -1}
	if pr != nil {
		s.ps = pr.newScratch()
	}
	return s
}

func (s *argminSink) skip(blo, bhi int) (bool, bool) {
	if s.pr == nil {
		return false, false
	}
	return s.pr.pruneBatch(s.ps, blo, bhi)
}

func (s *argminSink) add(idx int, res *whatif.Result) {
	if v := s.objective(*res); v < s.score {
		s.score, s.idx = v, idx
		if s.pr != nil {
			s.pr.noteScore(v)
		}
	}
}

func (s *argminSink) merge(other sink) {
	b := other.(*argminSink)
	if b.idx >= 0 && (s.idx < 0 || b.score < s.score || (b.score == s.score && b.idx < s.idx)) {
		s.score, s.idx = b.score, b.idx
	}
}

// argmin runs the sweep with argmin sinks and assembles the Solution.
// opts.Floor enables branch-and-bound when the space compiled (callers
// clear it unless opts.Prune is set): the
// incumbent is seeded from spread probes (and opts.Incumbent), and
// batches whose bound exceeds it are retired wholesale. Pruned
// candidates score strictly worse than an achieved score, so the argmin
// and its tie-break are unchanged; only the assessed/pruned split
// depends on scheduling.
func (sw *sweep) argmin(objective Objective, opts ExhaustiveOptions) (*Solution, error) {
	var pr *pruner
	if opts.Floor != nil && sw.cs != nil {
		if pr = newPruner(sw.cs, opts.Floor, opts.Incumbent); pr != nil {
			phase(labelsPrune, func() { pr.seed(objective, sw.lo, sw.hi) })
		}
	}
	final, tally, err := sw.run(func() sink { return newArgminSink(objective, pr) }, opts.Progress)
	if opts.Stats != nil {
		*opts.Stats = SearchStats{Assessed: tally.evals, Pruned: tally.pruned, BoundsComputed: tally.bounds}
	}
	if err != nil {
		return nil, err
	}
	best := final.(*argminSink)
	if best.idx < 0 || math.IsInf(float64(best.score), 1) {
		return nil, ErrNoFeasible
	}
	choice := make([]int, len(sw.knobs))
	decodeChoice(choice, sw.knobs, best.idx)
	tuned, err := applyChoice(sw.base, sw.knobs, choice)
	if err != nil {
		return nil, err
	}
	sol := &Solution{
		Design:           tuned,
		Score:            best.score,
		Evaluations:      tally.evals,
		Passes:           1,
		CandidateIndex:   best.idx,
		CandidatesPruned: tally.pruned,
		BoundsComputed:   tally.bounds,
	}
	for i, k := range sw.knobs {
		sol.Choices = append(sol.Choices, Choice{Knob: k.Name, Option: k.Options[choice[i]]})
	}
	return sol, nil
}
