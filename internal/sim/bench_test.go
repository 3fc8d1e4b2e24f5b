package sim

import (
	"testing"
	"time"

	"stordep/internal/hierarchy"
	"stordep/internal/units"
)

// runAllocsPerLevel bounds the allocations of New+AddOutage+Run per chain
// level: each level's RP slice and query index arrays plus the
// simulator's fixed bookkeeping. Measured 16 for the three-level Baseline
// with one outage per level. Boxing each event through container/heap
// would cost two allocations per fire, thousands per Run.
const runAllocsPerLevel = 6

func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	chain := baselineChain()
	outs := benchOutages(len(chain), 26*units.Week) // one per level
	got := testing.AllocsPerRun(50, func() {
		s, err := New(chain)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			if err := s.AddOutage(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(2 * units.Year); err != nil {
			t.Fatal(err)
		}
	})
	budget := runAllocsPerLevel * len(chain)
	t.Logf("allocs per Run: %.0f (budget %d)", got, budget)
	if got > float64(budget) {
		t.Errorf("New+AddOutage+Run allocates %.0f, budget %d", got, budget)
	}
}

// benchOutages places one AbortInFlight outage on every level each
// quarter, staggered by level, so a faulted Run exercises the fault
// cursors and its queries land in degraded stretches.
func benchOutages(levels int, until time.Duration) []Outage {
	var outs []Outage
	for from := 13 * units.Week; from < until; from += 13 * units.Week {
		for j := 1; j <= levels; j++ {
			start := from + time.Duration(j)*units.Day
			outs = append(outs, Outage{Level: j, From: start, To: start + 5*units.Day, AbortInFlight: true})
		}
	}
	return outs
}

// benchCases are the timelines the per-layer benchmarks run: Baseline
// and F+I, each healthy and with quarterly outages, over two years.
func benchCases() []struct {
	name    string
	chain   hierarchy.Chain
	outages []Outage
} {
	const until = 2 * units.Year
	return []struct {
		name    string
		chain   hierarchy.Chain
		outages []Outage
	}{
		{"baseline/healthy", baselineChain(), nil},
		{"baseline/outages", baselineChain(), benchOutages(3, until)},
		{"fi/healthy", fiChain(), nil},
		{"fi/outages", fiChain(), benchOutages(1, until)},
	}
}

func benchSim(b *testing.B, chain hierarchy.Chain, outages []Outage) *Simulator {
	s, err := New(chain)
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range outages {
		if err := s.AddOutage(o); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Run(2 * units.Year); err != nil {
		b.Fatal(err)
	}
	return s
}

// Sinks keep the compiler from dropping the measured calls.
var (
	benchSimSink *Simulator
	benchOKSink  bool
)

func BenchmarkRun(b *testing.B) {
	for _, bc := range benchCases() {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSimSink = benchSim(b, bc.chain, bc.outages)
			}
		})
	}
}

// benchQueries runs query over failure instants spread through the
// second half of the horizon (every level holds RPs by then), all levels
// surviving.
func benchQueries(b *testing.B, query func(s *Simulator, surviving []int, at time.Duration) bool) {
	for _, bc := range benchCases() {
		b.Run(bc.name, func(b *testing.B) {
			s := benchSim(b, bc.chain, bc.outages)
			surviving := make([]int, len(bc.chain))
			for j := range surviving {
				surviving[j] = j + 1
			}
			from, to := units.Year, 2*units.Year
			step := (to - from) / 1009
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchOKSink = query(s, surviving, from+time.Duration(i%1009)*step)
			}
		})
	}
}

func BenchmarkLoss(b *testing.B) {
	benchQueries(b, func(s *Simulator, surviving []int, at time.Duration) bool {
		_, _, ok := s.Loss(surviving, at, 0)
		return ok
	})
}

func BenchmarkPlan(b *testing.B) {
	benchQueries(b, func(s *Simulator, surviving []int, at time.Duration) bool {
		_, ok := s.Plan(surviving, at, 0)
		return ok
	})
}
