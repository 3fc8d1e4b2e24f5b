package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"time"

	"stordep/internal/hierarchy"
	"stordep/internal/units"
)

// This file keeps the simulator's original linear-scan implementation as
// a test oracle: a container/heap event loop that checks every outage
// and silent fault on each fire, and queries that walk every RP on a
// level (rescanning the level for each incremental's base full). The
// indexed Simulator must reproduce its RP stream and answer every query
// identically.

type oracleQueue []event

func (q oracleQueue) Len() int           { return len(q) }
func (q oracleQueue) Less(i, j int) bool { return eventQueue(q).Less(i, j) }
func (q oracleQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)        { *q = append(*q, x.(event)) }
func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

func (o Outage) contains(at time.Duration) bool {
	return at >= o.From && at < o.To
}

func (f SilentFault) contains(at time.Duration) bool {
	return at >= f.From && at < f.To
}

// oracle holds the RP history of one scan-based replay.
type oracle struct {
	chain  hierarchy.Chain
	levels [][]RP
}

func oracleRun(c hierarchy.Chain, outages []Outage, silents []SilentFault, until time.Duration) *oracle {
	o := &oracle{chain: c, levels: make([][]RP, len(c))}
	var q oracleQueue
	var seq int64
	push := func(e event) {
		e.seq = seq
		seq++
		heap.Push(&q, e)
	}
	for j := 1; j <= len(c); j++ {
		pol := c[j-1].Policy
		phase := c.CumTransferLag(j - 1)
		push(event{at: phase + pol.Primary.AccW, level: j})
		if pol.Secondary != nil {
			for k := 1; k <= pol.CycleCnt; k++ {
				push(event{
					at:        phase + pol.Primary.AccW + time.Duration(k)*pol.Secondary.AccW,
					level:     j,
					secondary: true,
				})
			}
		}
	}
	for q.Len() > 0 {
		e := heap.Pop(&q).(event)
		if e.at > until {
			break
		}
		o.fire(e, outages, silents)
		next := e
		next.at += c[e.level-1].Policy.CyclePeriod()
		push(next)
	}
	return o
}

func (o *oracle) fire(e event, outages []Outage, silents []SilentFault) {
	pol := o.chain[e.level-1].Policy
	win := pol.Primary
	if e.secondary {
		win = *pol.Secondary
	}
	avail := e.at + win.HoldW + win.PropW
	for _, out := range outages {
		if out.Level != e.level {
			continue
		}
		if out.contains(e.at) {
			return
		}
		if out.AbortInFlight && e.at < out.To && avail > out.From {
			return
		}
	}
	cut := e.at
	phantom := false
	for _, f := range silents {
		if f.Level == e.level && f.contains(e.at) {
			phantom = true
		}
	}
	if e.level > 1 {
		below, ok := o.newest(e.level-1, e.at)
		if !ok {
			return
		}
		cut = below.Cut
		phantom = phantom || below.Phantom
	}
	o.levels[e.level-1] = append(o.levels[e.level-1], RP{
		Cut:         cut,
		AvailableAt: avail,
		ExpiresAt:   avail + pol.RetW,
		Secondary:   e.secondary,
		Phantom:     phantom,
	})
}

func (o *oracle) newest(level int, at time.Duration) (RP, bool) {
	var best RP
	found := false
	for _, rp := range o.levels[level-1] {
		if rp.Covers(at) && (!found || rp.Cut > best.Cut) {
			best, found = rp, true
		}
	}
	return best, found
}

func (o *oracle) available(level int, at time.Duration) []RP {
	var out []RP
	for _, rp := range o.levels[level-1] {
		if rp.Covers(at) {
			out = append(out, rp)
		}
	}
	return out
}

func (o *oracle) baseFull(level int, incr RP) (RP, bool) {
	var best RP
	found := false
	for _, rp := range o.levels[level-1] {
		if !rp.Secondary && rp.Cut <= incr.Cut && (!found || rp.Cut > best.Cut) {
			best, found = rp, true
		}
	}
	return best, found
}

func (o *oracle) usableAt(level int, rp RP, failAt time.Duration) bool {
	if rp.Phantom || !rp.Covers(failAt) {
		return false
	}
	if !rp.Secondary {
		return true
	}
	base, ok := o.baseFull(level, rp)
	return ok && !base.Phantom && base.Covers(failAt)
}

func (o *oracle) loss(ran time.Duration, surviving []int, failAt, targetAge time.Duration) (time.Duration, int, bool) {
	if failAt > ran {
		return 0, 0, false
	}
	target := failAt - targetAge
	if target < 0 {
		return 0, 0, false
	}
	bestLevel := 0
	var bestCut time.Duration = -1
	for _, j := range surviving {
		if j < 1 || j > len(o.chain) {
			continue
		}
		for _, rp := range o.levels[j-1] {
			if o.usableAt(j, rp, failAt) && rp.Cut <= target && rp.Cut > bestCut {
				bestCut, bestLevel = rp.Cut, j
			}
		}
	}
	if bestLevel == 0 {
		return 0, 0, false
	}
	return target - bestCut, bestLevel, true
}

func (o *oracle) plan(ran time.Duration, surviving []int, failAt, targetAge time.Duration) (RestorePlan, bool) {
	if failAt > ran {
		return RestorePlan{}, false
	}
	target := failAt - targetAge
	if target < 0 {
		return RestorePlan{}, false
	}
	var best RestorePlan
	found := false
	for _, j := range surviving {
		if j < 1 || j > len(o.chain) {
			continue
		}
		for _, rp := range o.levels[j-1] {
			if o.usableAt(j, rp, failAt) && rp.Cut <= target && (!found || rp.Cut > best.Serving.Cut) {
				best = RestorePlan{Serving: rp, Level: j}
				found = true
			}
		}
	}
	if !found {
		return RestorePlan{}, false
	}
	best.Incremental = best.Serving.Secondary
	best.FullCut = best.Serving.Cut
	if best.Incremental {
		base, _ := o.baseFull(best.Level, best.Serving)
		best.FullCut = base.Cut
	}
	return best, true
}

// fiTwoLevelChain stacks a cyclic level over the F+I backup, so the upper
// level forwards cuts from a level whose availability order differs from
// its window-close order.
func fiTwoLevelChain() hierarchy.Chain {
	return append(fiChain(), hierarchy.Level{Name: "fi-vault", Policy: hierarchy.Policy{
		Primary:   hierarchy.WindowSet{AccW: units.Week, PropW: 24 * time.Hour, HoldW: 12 * time.Hour, Rep: hierarchy.RepFull},
		Secondary: &hierarchy.WindowSet{AccW: 36 * time.Hour, PropW: 6 * time.Hour, HoldW: time.Hour, Rep: hierarchy.RepPartial},
		CycleCnt:  2,
		RetCnt:    4, RetW: 6 * units.Week, CopyRep: hierarchy.RepFull,
	}})
}

// descentOutage takes fiTwoLevelChain's F+I level down from just after
// a cycle's first incremental closes until that incremental has expired
// and the cycle's full has not: the newest RP below goes back one day,
// so the level above forwards a cut older than its previous one.
var descentOutage = Outage{Level: 1, From: 1248*time.Hour + 1, To: 1224*time.Hour + 5*units.Week}

// randomFaults draws up to eight outages (AbortInFlight or not) and six
// silent faults on random levels within the horizon. Half the window
// edges sit within a nanosecond of a window close, availability or
// expiry of the healthy run's RPs on that level, where an off-by-one in
// the fault checks would show.
func randomFaults(rng *rand.Rand, chain hierarchy.Chain, healthy [][]RP, until time.Duration) ([]Outage, []SilentFault) {
	edge := func(level int) (time.Duration, bool) {
		rps := healthy[level-1]
		if len(rps) == 0 || rng.Intn(2) == 0 {
			return 0, false
		}
		rp := rps[rng.Intn(len(rps))]
		win := chain[level-1].Policy.Primary
		if rp.Secondary {
			win = *chain[level-1].Policy.Secondary
		}
		at := []time.Duration{rp.AvailableAt - win.HoldW - win.PropW, rp.AvailableAt, rp.ExpiresAt}[rng.Intn(3)]
		return at + time.Duration(rng.Intn(3)-1), true
	}
	span := func(level int, maxLen time.Duration) (time.Duration, time.Duration) {
		from := time.Duration(rng.Int63n(int64(until)))
		if at, ok := edge(level); ok && at >= 0 {
			from = at
		}
		to := from + 1 + time.Duration(rng.Int63n(int64(maxLen)))
		if at, ok := edge(level); ok && at > from {
			to = at
		}
		return from, to
	}
	var outs []Outage
	for n := rng.Intn(9); n > 0; n-- {
		level := 1 + rng.Intn(len(chain))
		from, to := span(level, 6*units.Week)
		outs = append(outs, Outage{Level: level, From: from, To: to, AbortInFlight: rng.Intn(2) == 0})
	}
	var sils []SilentFault
	for n := rng.Intn(7); n > 0; n-- {
		level := 1 + rng.Intn(len(chain))
		from, to := span(level, 2*units.Week)
		sils = append(sils, SilentFault{Level: level, From: from, To: to})
	}
	return outs, sils
}

// failInstants returns a uniform grid over the horizon plus the instant
// of, and the nanosecond either side of, every RP's availability and
// expiry edge.
func failInstants(levels [][]RP, until time.Duration) []time.Duration {
	var out []time.Duration
	for at := time.Duration(0); at <= until+time.Hour; at += until / 60 {
		out = append(out, at)
	}
	for _, rps := range levels {
		for _, rp := range rps {
			for _, edge := range []time.Duration{rp.AvailableAt, rp.ExpiresAt} {
				out = append(out, edge-time.Nanosecond, edge, edge+time.Nanosecond)
			}
		}
	}
	return out
}

// randomSurviving draws a surviving set that may repeat levels and name
// levels out of range.
func randomSurviving(rng *rand.Rand, levels int) []int {
	set := make([]int, 1+rng.Intn(levels+1))
	for i := range set {
		set[i] = rng.Intn(levels+2) - rng.Intn(2)
	}
	return set
}

func TestIndexMatchesOracle(t *testing.T) {
	chains := []struct {
		name  string
		chain hierarchy.Chain
		until time.Duration
		// fixed joins the random faults of every faulted case.
		fixed []Outage
	}{
		{"baseline", baselineChain(), 30 * units.Week, nil},
		{"fi", fiChain(), 24 * units.Week, nil},
		{"fi-two-level", fiTwoLevelChain(), 24 * units.Week, []Outage{descentOutage}},
	}
	rng := rand.New(rand.NewSource(13))
	var queries, recoverable, incremental, unsorted int
	for _, tc := range chains {
		cases := 12
		if testing.Short() {
			cases = 3
		}
		for n := 0; n < cases; n++ {
			var outs []Outage
			var sils []SilentFault
			if n > 0 { // case 0 is healthy
				healthy := oracleRun(tc.chain, nil, nil, tc.until).levels
				outs, sils = randomFaults(rng, tc.chain, healthy, tc.until)
				outs = append(outs, tc.fixed...)
			}
			s, err := New(tc.chain)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				if err := s.AddOutage(o); err != nil {
					t.Fatal(err)
				}
			}
			for _, f := range sils {
				if err := s.AddSilentFault(f); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Run(tc.until); err != nil {
				t.Fatal(err)
			}
			want := oracleRun(tc.chain, outs, sils, tc.until)
			for j := 1; j <= len(tc.chain); j++ {
				got, err := s.RPs(j)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want.levels[j-1]) {
					t.Fatalf("%s case %d level %d: RP stream differs from the oracle", tc.name, n, j)
				}
				if s.index[j-1].order != nil {
					unsorted++
				}
			}
			for _, at := range failInstants(want.levels, tc.until) {
				for j := 0; j <= len(tc.chain)+1; j++ {
					got, gotErr := s.Available(j, at)
					if j < 1 || j > len(tc.chain) {
						if gotErr == nil {
							t.Fatalf("Available(%d) accepted an out-of-range level", j)
						}
						continue
					}
					if exp := want.available(j, at); !slices.Equal(got, exp) {
						t.Fatalf("%s case %d: Available(%d, %v) = %v, oracle %v", tc.name, n, j, at, got, exp)
					}
				}
				for _, age := range []time.Duration{0, 24 * time.Hour, time.Duration(rng.Int63n(int64(8 * units.Week)))} {
					surviving := randomSurviving(rng, len(tc.chain))
					queries++
					loss, level, ok := s.Loss(surviving, at, age)
					wLoss, wLevel, wOK := want.loss(tc.until, surviving, at, age)
					if loss != wLoss || level != wLevel || ok != wOK {
						t.Fatalf("%s case %d: Loss(%v, %v, %v) = (%v, %d, %v), oracle (%v, %d, %v)",
							tc.name, n, surviving, at, age, loss, level, ok, wLoss, wLevel, wOK)
					}
					plan, ok := s.Plan(surviving, at, age)
					wPlan, wOK := want.plan(tc.until, surviving, at, age)
					if plan != wPlan || ok != wOK {
						t.Fatalf("%s case %d: Plan(%v, %v, %v) = (%+v, %v), oracle (%+v, %v)",
							tc.name, n, surviving, at, age, plan, ok, wPlan, wOK)
					}
					if ok {
						recoverable++
						if plan.Incremental {
							incremental++
						}
					}
				}
			}
		}
	}
	t.Logf("%d queries, %d recoverable, %d served by incrementals; %d unsorted levels", queries, recoverable, incremental, unsorted)
	// The property is only as strong as what it exercised.
	if recoverable == 0 || recoverable == queries || incremental == 0 || unsorted == 0 {
		t.Fatalf("oracle test lost coverage: %d queries, %d recoverable, %d incremental, %d unsorted levels",
			queries, recoverable, incremental, unsorted)
	}
}
