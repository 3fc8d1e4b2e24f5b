package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkNames returns the end-to-end and per-layer metric names
// BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// runResult runs the benchmark command in-process and decodes the last
// line of its output.
func runResult(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("run %v: exit code %d", args, code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func names(res result) []string {
	var out []string
	for name, m := range res.Metrics {
		if m.Unit == "" {
			out = append(out, name+" (no unit)")
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	res := runResult(t, "--workload", "montecarlo", "--seconds", "1", "--trace", "0")
	if got := names(res); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("untraced metrics %v, BENCHMARK.json end_to_end %v", got, endToEnd)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
		t.Errorf("untraced run: correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
	}
	if testing.Short() {
		return
	}
	res = runResult(t, "--workload", "montecarlo", "--seconds", "1", "--trace", "1")
	if got := names(res); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("traced metrics %v, BENCHMARK.json per_layer %v", got, perLayer)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced run: correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
	}
}

// failRatio runs n ops of the workload at the default seed against refs.
func failRatio(t *testing.T, name string, n int, refs *references) float64 {
	t.Helper()
	b := newBench(name, defaultSeed, refs, io.Discard)
	w, err := newWorkload(name, b.in, refs)
	if err != nil {
		t.Fatal(err)
	}
	l := b.closedLoop(w, 0, n, nil)
	return ratio(float64(l.failures()), float64(len(l.lat)))
}

func TestCorruptedReferenceFails(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	if r := failRatio(t, "search", searchPeriod, refs); r != 0 {
		t.Fatalf("search against intact references: fail_ratio %g", r)
	}
	bad := *refs
	bad.Search = append([]string(nil), refs.Search...)
	bad.Search[1] = "worst/0/0000000000000000"
	if r := failRatio(t, "search", searchPeriod, &bad); r <= 0 {
		t.Errorf("search with a corrupted reference: fail_ratio %g, want > 0", r)
	}

	w, err := newChaos(newInputs(defaultSeed), refs.Chaos)
	if err != nil {
		t.Fatal(err)
	}
	c := w.caseFor(0)
	bad = *refs
	bad.Chaos = make([][]chaosCase, len(refs.Chaos))
	for s, stratum := range refs.Chaos {
		bad.Chaos[s] = append([]chaosCase(nil), stratum...)
		for k := range stratum {
			if stratum[k] == c {
				bad.Chaos[s][k].Digest = "0000000000000000"
			}
		}
	}
	if r := failRatio(t, "chaos", 1, &bad); r <= 0 {
		t.Errorf("chaos with a corrupted catalogue digest: fail_ratio %g, want > 0", r)
	}
}

func TestPercentileAndRatio(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}, {25, 3.25},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %g, want NaN", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1, 4) = %g", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %g, want 0", got)
	}
}

func TestScaleAll(t *testing.T) {
	ms := time.Millisecond
	lat := []time.Duration{10 * ms, 10 * ms, 10 * ms, 10 * ms, 10 * ms, 20 * ms, 20 * ms}
	// The host halves its speed after op 3; op 2's calibration is an
	// outlier the window's median ignores.
	cal := []time.Duration{calRef, calRef, 9 * calRef, calRef, 2 * calRef, 2 * calRef, 2 * calRef}
	want := []time.Duration{10 * ms, 10 * ms, 10 * ms, 5 * ms, 5 * ms, 10 * ms, 10 * ms}
	if got := scaleAll(lat, cal, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("scaleAll = %v, want %v", got, want)
	}
	// Every second op: ops 2k and 2k+1 share calibration k, and the
	// last op's window still lies within the calibrations.
	cal2 := []time.Duration{2 * calRef, 2 * calRef, 2 * calRef, 2 * calRef}
	lat2 := append(lat, 10*ms)
	want2 := []time.Duration{5 * ms, 5 * ms, 5 * ms, 5 * ms, 5 * ms, 10 * ms, 10 * ms, 5 * ms}
	if got := scaleAll(lat2, cal2, 2); !reflect.DeepEqual(got, want2) {
		t.Errorf("scaleAll every 2 = %v, want %v", got, want2)
	}
	if lat[3] != 10*ms {
		t.Error("scaleAll modified its input")
	}
}

func TestCalibrationKernelAllocations(t *testing.T) {
	if calNodeBytes != 128 {
		t.Errorf("calNode is %d bytes, want 128, a size class of its own", calNodeBytes)
	}
	// The runtime and the test framework may allocate meanwhile, so take
	// the least of a few runs.
	mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		calibrate()
		runtime.ReadMemStats(&m1)
		mallocs = min(mallocs, m1.Mallocs-m0.Mallocs)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	if mallocs != calNodes || bytes != calNodes*uint64(calNodeBytes) {
		t.Errorf("the kernel makes %d allocations of %d bytes in all, want %d of %d", mallocs, bytes, calNodes, calNodes*calNodeBytes)
	}
}

func TestSpreadOrder(t *testing.T) {
	for _, n := range []int{1, 5, 8, 100} {
		order := spreadOrder(n)
		seen := make([]bool, n)
		for _, s := range order {
			seen[s] = true
		}
		if len(order) != n {
			t.Fatalf("spreadOrder(%d) = %v", n, order)
		}
		for s, ok := range seen {
			if !ok {
				t.Fatalf("spreadOrder(%d) misses %d", n, s)
			}
		}
	}
	// A prefix of a round covers the cost range evenly.
	order := spreadOrder(100)
	low := 0
	for _, s := range order[:50] {
		if s < 50 {
			low++
		}
	}
	if low != 25 {
		t.Errorf("first half of spreadOrder(100) holds %d of the cheaper half, want 25", low)
	}
}

func TestSeedsChangeInputsAndDefaultReproducesReferences(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	a, b := newInputs(defaultSeed), newInputs(defaultSeed+1)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 generate the same inputs")
	}
	if !reflect.DeepEqual(a, newInputs(defaultSeed)) {
		t.Fatal("the same seed generates different inputs")
	}
	ca, err := newChaos(a, refs.Chaos)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := newChaos(b, refs.Chaos)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 100; i++ {
		if ca.caseFor(i) == cb.caseFor(i) {
			same++
		}
	}
	if same > 20 {
		t.Errorf("seeds 1 and 2 share %d of their first 100 chaos cases", same)
	}

	// The default seed reproduces every stored search answer and, since
	// each chaos op checks its catalogue digest, its first chaos cases.
	if r := failRatio(t, "search", searchPeriod, refs); r != 0 {
		t.Errorf("search: fail_ratio %g against the references", r)
	}
	if r := failRatio(t, "chaos", 10, refs); r != 0 {
		t.Errorf("chaos: fail_ratio %g against the catalogue", r)
	}
	if testing.Short() {
		return
	}
	if r := failRatio(t, "montecarlo", mcTrials, refs); r != 0 {
		t.Errorf("montecarlo: fail_ratio %g against the first campaign's fold", r)
	}
}
