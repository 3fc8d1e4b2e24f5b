package mc

import (
	"testing"

	"stordep/internal/casestudy"
)

// trialAllocBudget bounds the per-trial allocation count on the hot
// path (sample schedules, replay the simulator, check bounds, assess
// penalties). Measured ~177 for Baseline; the budget, about twice that,
// carries headroom for schedule variance while still catching a
// regression such as per-event boxing in the simulator, a per-event
// encode or an uncached analytic assessment.
const trialAllocBudget = 360

func TestTrialAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	c := &Campaign{Design: casestudy.Baseline(), Seed: 9, Trials: 1000}
	r, err := c.runner()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	got := testing.AllocsPerRun(200, func() {
		if _, err := r.trial(i % c.Trials); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("allocs per trial: %.0f (budget %d)", got, trialAllocBudget)
	if got > trialAllocBudget {
		t.Errorf("per-trial hot path allocates %.0f, budget %d", got, trialAllocBudget)
	}
}

// BenchmarkTrial is the raw per-trial cost, for -bench comparison runs.
func BenchmarkTrial(b *testing.B) {
	c := &Campaign{Design: casestudy.Baseline(), Seed: 9, Trials: 1 << 30}
	r, err := c.runner()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.trial(i); err != nil {
			b.Fatal(err)
		}
	}
}
