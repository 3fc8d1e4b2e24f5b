package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// probeOp is the op identifier of spans recorded by a probe rather than
// by a workload op.
const probeOp = -1

// span is one timed call the benchmark made into a layer's public
// function. Spans are recorded from outside the program, so they are
// flat: a span's duration is the layer's self time for that call.
type span struct {
	// Name is "layer.Function", e.g. "opt.ExhaustiveOpts".
	Name string `json:"name"`
	// Op is the workload op the call served (spans of one op share it),
	// or probeOp for probe calls.
	Op int `json:"op"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Calls is how many back-to-back calls the span covers: probes of
	// sub-microsecond functions time a batch, because a single call is
	// shorter than the clock reads around it.
	Calls int `json:"calls"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer is the untraced mode: every method is a no-op, so workload
// code calls it unconditionally.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// begin returns the start instant of a span (zero when untraced).
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes the span named name that began at start.
func (t *tracer) end(name string, op int, start time.Time) { t.endN(name, op, start, 1) }

// endN closes a span covering calls back-to-back calls.
func (t *tracer) endN(name string, op int, start time.Time, calls int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name:  name,
		Op:    op,
		Start: int64(start.Sub(t.t0)),
		End:   int64(time.Since(t.t0)),
		Calls: calls,
	})
}

// add accumulates a counter recorded at a layer boundary.
func (t *tracer) add(counter string, v float64) {
	if t == nil {
		return
	}
	t.counts[counter] += v
}

// perCall returns, for every span with the given name, its duration
// per covered call in unit.
func (t *tracer) perCall(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(s.Calls)/float64(unit))
		}
	}
	return out
}

// write saves every span and counter as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// spanMetrics are the per-layer metrics read from span durations: the
// median per-call time of the named spans.
var spanMetrics = []struct{ metric, span, unit string }{
	{"opt.search_ms", "opt.ExhaustiveOpts", "ms"},
	{"opt.fixed_ms", "opt.ExhaustiveOpts/1", "ms"},
	{"core.clone_us", "core.Design.Clone", "us"},
	{"core.build_us", "core.Build", "us"},
	{"core.assess_us", "core.System.Assess", "us"},
	{"core.assess_brief_us", "core.System.AssessBrief", "us"},
	{"core.batch_ns_per_row", "core.BatchKernel", "ns"},
	{"core.delta_ns", "core.DeltaAssessor.AssessDelta", "ns"},
	{"core.assess_degraded_us", "core.System.AssessDegradedCompound", "us"},
	{"protect.demands_us", "protect.Technique.ApplyDemands", "us"},
	{"hierarchy.range_ns", "hierarchy.Chain.GuaranteedRange", "ns"},
	{"hierarchy.worst_loss_ns", "hierarchy.Chain.WorstCaseLoss", "ns"},
	{"recovery.candidates_ns", "recovery.Candidates+SelectSource", "ns"},
	{"recovery.schedule_us", "recovery.Schedule", "us"},
	{"sim.run_ms", "sim.Run", "ms"},
	{"sim.run_mirror_ms", "sim.Run/mirror", "ms"},
	{"sim.loss_us", "sim.Simulator.Loss", "us"},
	{"sim.plan_us", "sim.Simulator.Plan", "us"},
	{"sim.available_us", "sim.Simulator.Available", "us"},
	{"mc.trial_ms", "mc.Campaign.Sample", "ms"},
	{"mc.estimate_ms", "mc.Campaign.Estimate", "ms"},
	{"chaos.case_ms", "chaos.Campaign.Run", "ms"},
	{"chaos.bound_ns", "chaos.AnalyticBound", "ns"},
	{"chaos.battery_ms", "chaos.Replay", "ms"},
}

// countMetrics are the per-layer metrics read from counters: num/den,
// or num alone when den is empty.
var countMetrics = []struct{ metric, num, den, unit string }{
	{"opt.assessed", "opt.assessed", "opt.searches", "count"},
	{"opt.pruned", "opt.pruned", "opt.pruned_searches", "count"},
	{"opt.prune_ratio", "opt.pruned", "opt.pruned_space", "ratio"},
	{"opt.bounds_computed", "opt.bounds_computed", "opt.pruned_searches", "count"},
	{"core.delta_fallback_ratio", "core.delta_fallbacks", "core.delta_calls", "ratio"},
	{"sim.rps", "sim.rps", "", "count"},
	{"sim.rps_mirror", "sim.rps/mirror", "", "count"},
	{"mc.events", "mc.events", "mc.trials", "count"},
	{"mc.bound_checks", "mc.bound_checks", "mc.trials", "count"},
	{"mc.bound_skips", "mc.bound_skips", "mc.trials", "count"},
	{"mc.check_ratio", "mc.bound_checks", "mc.bound_considered", "ratio"},
	{"chaos.checks", "chaos.checks", "chaos.cases", "count"},
	{"chaos.bounds_skipped", "chaos.bounds_skipped", "chaos.cases", "count"},
	{"chaos.resample_ratio", "chaos.resamples", "chaos.generated", "ratio"},
}

var unitDurations = map[string]time.Duration{"ms": time.Millisecond, "us": time.Microsecond, "ns": time.Nanosecond}

// layerMetrics derives every per-layer metric except the tracing
// overhead from the recorded spans and counters.
func (t *tracer) layerMetrics() (map[string]metric, error) {
	m := make(map[string]metric, len(spanMetrics)+len(countMetrics)+1)
	for _, s := range spanMetrics {
		calls := t.perCall(s.span, unitDurations[s.unit])
		if len(calls) == 0 {
			return nil, fmt.Errorf("trace: no %s spans for %s", s.span, s.metric)
		}
		m[s.metric] = metric{median(calls), s.unit}
	}
	for _, c := range countMetrics {
		den := 1.0
		if c.den != "" {
			den = t.counts[c.den]
		}
		if den == 0 {
			return nil, fmt.Errorf("trace: counter %s is zero for %s", c.den, c.metric)
		}
		m[c.metric] = metric{t.counts[c.num] / den, c.unit}
	}
	return m, nil
}
