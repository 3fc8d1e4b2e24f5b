package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/chaos"
	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/opt"
	"stordep/internal/protect"
	"stordep/internal/recovery"
	"stordep/internal/sim"
	"stordep/internal/units"
)

// Probes call single public functions of each layer directly, on inputs
// drawn from the workloads, so that a traced run can time layers the
// workload ops only reach from inside the program.

const (
	// probeCandidates is the number of search-space candidates the core
	// and protect probes assess.
	probeCandidates = 16
	// probeRounds repeats each probe, so medians rest on several spans.
	probeRounds = 5
	// fastCalls is the batch size of probes of functions that return in
	// well under a microsecond.
	fastCalls = 1000
	// simGrid is the number of instants per timeline the sim query
	// probes visit, and simRounds how often: a query on the mirror
	// timeline takes milliseconds.
	simGrid   = 25
	simRounds = 3
)

// probe records one span named name around calls back-to-back calls of
// f.
func probe(tr *tracer, name string, calls int, f func()) {
	t0 := tr.begin()
	for c := 0; c < calls; c++ {
		f()
	}
	tr.endN(name, probeOp, t0, calls)
}

func runProbes(in inputs, tr *tracer) error {
	r := rand.New(rand.NewSource(in.probeSeed))
	if err := probeSearch(in, r, tr); err != nil {
		return fmt.Errorf("search probes: %w", err)
	}
	if err := probeChains(r, tr); err != nil {
		return fmt.Errorf("chain probes: %w", err)
	}
	if err := probeSim(r, tr); err != nil {
		return fmt.Errorf("sim probes: %w", err)
	}
	if err := probeBattery(r, tr); err != nil {
		return fmt.Errorf("battery probe: %w", err)
	}
	return nil
}

// probeSearch times the search's fixed cost and the core and protect
// functions on a sample of the search space's candidates.
func probeSearch(in inputs, r *rand.Rand, tr *tracer) error {
	w := newSearch(in)
	space, err := opt.SpaceSize(w.knobs)
	if err != nil {
		return err
	}
	o := w.objs[in.objOrder[0]]
	for k := 0; k < probeRounds; k++ {
		// A one-candidate shard still compiles the space and builds the
		// bound tables: what remains is the search's fixed cost.
		t0 := tr.begin()
		_, err := opt.ExhaustiveOpts(w.base, w.knobs, w.scs, o.score, opt.ExhaustiveOptions{
			Workers: 1, Prune: true, Floor: o.floor, Shard: opt.Shard{Index: r.Intn(space), Count: space},
		})
		tr.end("opt.ExhaustiveOpts/1", probeOp, t0)
		if err != nil && !errors.Is(err, opt.ErrNoFeasible) {
			return err
		}
	}

	var designs []*core.Design
	var systems []*core.System
	for tries := 0; len(designs) < probeCandidates; tries++ {
		if tries == 100*probeCandidates {
			return errors.New("too few buildable candidates in the search space")
		}
		d, err := candidate(w, r.Intn(space))
		if err != nil {
			return err
		}
		sys, err := core.Build(d)
		if err != nil {
			continue // over capacity: not a buildable candidate
		}
		designs, systems = append(designs, d), append(systems, sys)
	}
	baseSys, err := core.Build(w.base)
	if err != nil {
		return err
	}
	var batch core.BatchScratch
	delta, err := core.NewDeltaAssessor(w.base, w.scs)
	if err != nil {
		return err
	}
	var scratch core.Scratch
	for k := 0; k < probeRounds; k++ {
		for i, d := range designs {
			sys := systems[i]
			probe(tr, "core.Design.Clone", 1, func() { _, err = d.Clone() })
			if err != nil {
				return err
			}
			probe(tr, "core.Build", 1, func() { _, err = core.Build(d) })
			if err != nil {
				return err
			}
			for _, sc := range w.scs {
				probe(tr, "core.System.Assess", 1, func() { _, err = sys.Assess(sc) })
				if err != nil {
					return err
				}
				probe(tr, "core.System.AssessBrief", 1, func() { _, err = sys.AssessBrief(sc, &scratch) })
				if err != nil {
					return err
				}
			}
			t0 := tr.begin()
			_, _, ok := delta.AssessDelta(d)
			tr.end("core.DeltaAssessor.AssessDelta", probeOp, t0)
			tr.add("core.delta_calls", 1)
			if !ok {
				tr.add("core.delta_fallbacks", 1)
			}
			if err := probeDemands(d, tr); err != nil {
				return err
			}
		}
		if err := probeBatch(baseSys, w.scs, systems, &batch, tr); err != nil {
			return err
		}
	}
	return nil
}

// probeBatch times one columnar assessment of the candidate systems:
// kernel compilation, row extraction and the batch itself, per row.
func probeBatch(base *core.System, scs []failure.Scenario, systems []*core.System, batch *core.BatchScratch, tr *tracer) error {
	t0 := tr.begin()
	defer tr.endN("core.BatchKernel", probeOp, t0, len(systems))
	kern, err := core.NewBatchKernel(base, scs)
	if err != nil {
		return err
	}
	cols := kern.NewCols(len(systems))
	for row, sys := range systems {
		if err := kern.ExtractRow(sys, cols, row); err != nil {
			return err
		}
	}
	kern.AssessBatch(len(systems), cols, batch)
	return nil
}

// candidate applies the knob choices of candidate idx to a clone of the
// search's base design, decoding idx with the last knob least
// significant, as the search enumerates.
func candidate(w *searchWL, idx int) (*core.Design, error) {
	d, err := w.base.Clone()
	if err != nil {
		return nil, err
	}
	choice := make([]int, len(w.knobs))
	for k := len(w.knobs) - 1; k >= 0; k-- {
		n := len(w.knobs[k].Options)
		choice[k], idx = idx%n, idx/n
	}
	for k, kn := range w.knobs {
		if err := kn.Apply(d, choice[k]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// probeDemands times each technique's ApplyDemands on a fresh fleet.
func probeDemands(d *core.Design, tr *tracer) error {
	techs := append([]protect.Technique{d.Primary}, d.Levels...)
	for _, tech := range techs {
		devs := make(protect.DeviceMap, len(d.Devices))
		for _, pd := range d.Devices {
			dev, err := device.New(pd.Spec)
			if err != nil {
				return err
			}
			devs[pd.Spec.Name] = dev
		}
		t0 := tr.begin()
		err := tech.ApplyDemands(d.Workload, devs)
		tr.end("protect.Technique.ApplyDemands", probeOp, t0)
		if err != nil {
			return err
		}
	}
	return nil
}

// outageSchedule draws one outage per level, each up to two weeks long
// and starting within the window [from, from+span).
func outageSchedule(r *rand.Rand, levels int, from, span time.Duration) ([]sim.Outage, []hierarchy.LevelOutage) {
	var outs []sim.Outage
	var lvl []hierarchy.LevelOutage
	for j := 1; j <= levels; j++ {
		dur := time.Duration(1+r.Intn(14*24)) * time.Hour
		at := from + time.Duration(r.Int63n(int64(span)))
		at = at.Truncate(time.Minute)
		outs = append(outs, sim.Outage{Level: j, From: at, To: at + dur})
		lvl = append(lvl, hierarchy.LevelOutage{Level: j, Outage: dur})
	}
	return outs, lvl
}

// probeChains times the analytic models on the case-study chains under
// a seeded outage schedule.
func probeChains(r *rand.Rand, tr *tracer) error {
	scs := []failure.Scenario{{Scope: failure.ScopeArray}, {Scope: failure.ScopeSite}}
	ages := []time.Duration{0, time.Hour, 24 * time.Hour, units.Week, 4 * units.Week, units.Year}
	for _, d := range casestudy.WhatIfDesigns() {
		sys, err := core.Build(d)
		if err != nil {
			return err
		}
		chain := sys.Chain()
		n := len(chain)
		outs, lvl := outageSchedule(r, n, 0, units.Week)
		for k := 0; k < probeRounds; k++ {
			for _, sc := range scs {
				probe(tr, "core.System.AssessDegradedCompound", 1, func() { _, err = sys.AssessDegradedCompound(sc, lvl) })
				if err != nil {
					return err
				}
			}
			c := 0
			probe(tr, "hierarchy.Chain.GuaranteedRange", fastCalls, func() {
				chain.GuaranteedRange(1 + c%n)
				c++
			})
			probe(tr, "hierarchy.Chain.WorstCaseLoss", fastCalls, func() {
				chain.WorstCaseLoss(1+c%n, ages[c%len(ages)])
				c++
			})
			probe(tr, "chaos.AnalyticBound", fastCalls, func() {
				chaos.AnalyticBound(chain, outs, 1+c%n, ages[c%len(ages)])
				c++
			})
			sets := levelSets(n)
			probe(tr, "recovery.Candidates+SelectSource", fastCalls, func() {
				s := sets[c%len(sets)]
				recovery.Candidates(chain, s, ages[c%len(ages)])
				_, _ = recovery.SelectSource(chain, s, ages[c%len(ages)])
				c++
			})
		}
	}
	objs, deps := objectGraph(r, 8)
	for k := 0; k < probeRounds; k++ {
		var err error
		probe(tr, "recovery.Schedule", 100, func() { _, _, err = recovery.Schedule(objs, deps) })
		if err != nil {
			return err
		}
	}
	return nil
}

// levelSets returns every non-empty set of surviving levels of an
// n-level chain.
func levelSets(n int) [][]int {
	var sets [][]int
	for mask := 1; mask < 1<<n; mask++ {
		var s []int
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				s = append(s, j+1)
			}
		}
		sets = append(sets, s)
	}
	return sets
}

// objectGraph draws n objects with recovery times of up to a day and a
// random dependency DAG (each object may depend on earlier ones).
func objectGraph(r *rand.Rand, n int) ([]recovery.ObjectRT, map[string][]string) {
	objs := make([]recovery.ObjectRT, n)
	deps := map[string][]string{}
	for i := range objs {
		objs[i] = recovery.ObjectRT{Name: fmt.Sprintf("obj%d", i), RT: time.Duration(1+r.Intn(24*60)) * time.Minute}
		for j := 0; j < i; j++ {
			if r.Intn(3) == 0 {
				deps[objs[i].Name] = append(deps[objs[i].Name], objs[j].Name)
			}
		}
	}
	return objs, deps
}

// timeline is one simulated chain the sim query probes visit.
type timeline struct {
	s         *sim.Simulator
	warm      time.Duration
	surviving []int
}

// probeSim times timeline construction over warm-up plus a one-year
// mission on the Baseline chain (the montecarlo workload's design) and
// the one-link async mirror (the largest case-study timeline), then the
// timeline queries on both, with and without outages.
func probeSim(r *rand.Rand, tr *tracer) error {
	var tls []timeline
	for _, p := range []struct {
		suffix string
		design *core.Design
	}{{"", casestudy.Baseline()}, {"/mirror", casestudy.AsyncBMirror(1)}} {
		sys, err := core.Build(p.design)
		if err != nil {
			return err
		}
		chain := sys.Chain()
		var plain *sim.Simulator
		for k := 0; k < probeRounds; k++ {
			t0 := tr.begin()
			s, err := sim.New(chain)
			if err == nil {
				err = s.Run(s.WarmUp() + units.Year)
			}
			tr.end("sim.Run"+p.suffix, probeOp, t0)
			if err != nil {
				return err
			}
			plain = s
		}
		rps := 0
		for j := 1; j <= len(chain); j++ {
			got, err := plain.RPs(j)
			if err != nil {
				return err
			}
			rps += len(got)
		}
		tr.add("sim.rps"+p.suffix, float64(rps))

		warm := plain.WarmUp()
		faulted, err := sim.New(chain)
		if err != nil {
			return err
		}
		outs, _ := outageSchedule(r, len(chain), warm, units.Year/2)
		for _, o := range outs {
			if err := faulted.AddOutage(o); err != nil {
				return err
			}
		}
		if err := faulted.Run(warm + units.Year); err != nil {
			return err
		}
		surviving := make([]int, len(chain))
		for j := range surviving {
			surviving[j] = j + 1
		}
		tls = append(tls, timeline{plain, warm, surviving}, timeline{faulted, warm, surviving})
	}
	// Each span sweeps the instant grid over every timeline, so the
	// per-call time is the mean over a fixed mix of cheap (Baseline) and
	// expensive (mirror) timelines.
	var err error
	queries := []struct {
		name string
		call func(tl timeline, at time.Duration, g int)
	}{
		{"sim.Simulator.Loss", func(tl timeline, at time.Duration, _ int) { tl.s.Loss(tl.surviving, at, 0) }},
		{"sim.Simulator.Plan", func(tl timeline, at time.Duration, _ int) { tl.s.Plan(tl.surviving, at, 0) }},
		{"sim.Simulator.Available", func(tl timeline, at time.Duration, g int) {
			if _, e := tl.s.Available(1+g%len(tl.surviving), at); e != nil {
				err = e
			}
		}},
	}
	for k := 0; k < simRounds; k++ {
		for _, q := range queries {
			t0 := tr.begin()
			for _, tl := range tls {
				for g := 0; g < simGrid; g++ {
					q.call(tl, tl.warm+time.Duration(g)*(units.Year/simGrid), g)
				}
			}
			tr.endN(q.name, probeOp, t0, simGrid*len(tls))
		}
	}
	return err
}

// probeBattery runs the single-object invariant battery on chaos cases
// built from the tape-hierarchy case-study designs and seeded outages.
// The mirror designs are left out: their minute-granularity timelines
// make one battery take seconds.
func probeBattery(r *rand.Rand, tr *tracer) error {
	for k := 0; k < 2; k++ {
		for _, d := range casestudy.WhatIfDesigns()[:5] {
			sys, err := core.Build(d)
			if err != nil {
				return err
			}
			s, err := sim.New(sys.Chain())
			if err != nil {
				return err
			}
			warm := s.WarmUp()
			outs, _ := outageSchedule(r, len(sys.Chain()), warm, 8*units.Week)
			cs := &chaos.Case{
				Design:   d,
				Scenario: failure.Scenario{Scope: failure.ScopeArray},
				Horizon:  warm + 26*units.Week,
				Outages:  outs,
			}
			t0 := tr.begin()
			vs, err := chaos.Replay(cs)
			tr.end("chaos.Replay", probeOp, t0)
			if err != nil {
				return fmt.Errorf("%s: %w", d.Name, err)
			}
			tr.add("chaos.battery_violations", float64(len(vs)))
		}
	}
	return nil
}
