// Command perfbench is the repository benchmark. It drives three
// workloads through the public APIs of internal/opt, internal/chaos and
// internal/mc, one op at a time from a single goroutine, checks every
// op's output, and prints the metrics named in BENCHMARK.json as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload search --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that records spans around the benchmark's calls into each layer and
// reports the per-layer metrics. See NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// minOps is the fewest ops a timed phase runs, so that at least ten
// samples lie beyond the reported 90th percentile.
const minOps = 100

// setupReps is how many times a run repeats set-up; setup_s is the
// median.
const setupReps = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: search, chaos or montecarlo")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the stored references hold for the default")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	record := fs.Int("record", 0, "rewrite the workload's references in refs.json from this many Monte Carlo trials or chaos catalogue cases (search records its cycle), then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if !known(*name) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames)
		return 2
	}
	// Every workload has one client and Workers: 1. On one processor the
	// garbage collector's work lands in the process's CPU time the same
	// way on every host, instead of depending on how idle a second
	// processor is.
	runtime.GOMAXPROCS(1)
	if *record > 0 {
		if err := recordRefs(*name, *record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := newBench(*name, *seed, refs, stderr)
	// Only the measured workload's loop is scaled (see calib.go).
	b.calEvery = calEvery[*name]
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *traced == 1 {
		res, err = b.traced(dur)
	} else {
		res, err = b.untraced(dur)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// bench runs one workload.
type bench struct {
	name     string
	seed     int64
	in       inputs
	refs     *references
	ref      []string // default-seed op references; nil on other seeds
	calEvery int      // scale times by a calibration kernel run after every calEvery-th op; 0 = do not (calib.go)
	stderr   io.Writer
}

func newBench(name string, seed int64, refs *references, stderr io.Writer) *bench {
	b := &bench{name: name, seed: seed, in: newInputs(seed), refs: refs, stderr: stderr}
	if seed == defaultSeed {
		switch name {
		case "search":
			b.ref = refs.Search
		case "montecarlo":
			b.ref = refs.Montecarlo
		}
	}
	return b
}

// loop is one closed-loop phase's record.
type loop struct {
	lat     []time.Duration // per op, process CPU time, scaled if the bench is
	cpuLat  []time.Duration // per op, process CPU time as read
	failed  []bool
	busy    time.Duration // process CPU time of the whole phase, or of its scaled ops
	mallocs uint64
	bytes   uint64
}

func (l *loop) failures() int {
	n := 0
	for _, f := range l.failed {
		if f {
			n++
		}
	}
	return n
}

// setup builds the workload setupReps times, each time with one
// untimed warm-up op, and returns the last build and every set-up time.
// The warm-up op is op 0 of the default seed on every seed, so set-up
// time does not depend on which case or trial the seed drew first.
func (b *bench) setup() (workload, []time.Duration, error) {
	var w workload
	times := make([]time.Duration, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t0 := cpuNow()
		var err error
		if w, err = newWorkload(b.name, b.in, b.refs); err != nil {
			return nil, nil, err
		}
		warm, err := newWorkload(b.name, newInputs(defaultSeed), b.refs)
		if err != nil {
			return nil, nil, err
		}
		// The warm-up's output is checked where it counts: it is op 0
		// of every default-seed run.
		_, _ = warm.op(0, nil)
		d := cpuNow() - t0
		if b.calEvery > 0 {
			d = scale(d, calibrateMedian(3))
		}
		times = append(times, d)
	}
	return w, times, nil
}

// closedLoop issues ops 0, 1, ... one at a time: for dur and at least
// minOps ops, or exactly n ops when n > 0. It checks each op's
// fingerprint against the reference, when there is one, and its errors.
// On a scaled bench it runs the calibration kernel after every
// calEvery-th op, outside the op's time, and reports scaled op times,
// whose sum is the phase's busy time, and allocations without the
// kernel's.
func (b *bench) closedLoop(w workload, dur time.Duration, n int, tr *tracer) *loop {
	l := &loop{}
	var cal []time.Duration
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(dur)
	cpu0 := cpuNow()
	for i := 0; ; i++ {
		if n > 0 && i == n {
			break
		}
		if n == 0 && i >= minOps && !time.Now().Before(deadline) {
			break
		}
		t0 := cpuNow()
		fp, err := w.op(i, tr)
		l.cpuLat = append(l.cpuLat, cpuNow()-t0)
		l.failed = append(l.failed, b.check(i, fp, err))
		if b.calEvery > 0 && i%b.calEvery == 0 {
			cal = append(cal, calibrate())
		}
	}
	if err := w.finish(tr); err != nil {
		fmt.Fprintf(b.stderr, "perfbench: %s: end of timed phase: %v\n", b.name, err)
		l.failed[len(l.failed)-1] = true
	}
	l.busy = cpuNow() - cpu0
	runtime.ReadMemStats(&m1)
	l.lat = l.cpuLat
	if b.calEvery > 0 {
		l.lat, l.busy = scaleAll(l.cpuLat, cal, b.calEvery), 0
		for _, d := range l.lat {
			l.busy += d
		}
	}
	l.mallocs = m1.Mallocs - m0.Mallocs - uint64(len(cal))*calNodes
	l.bytes = m1.TotalAlloc - m0.TotalAlloc - uint64(len(cal))*calNodes*uint64(calNodeBytes)

	covered, err := w.verify()
	if err != nil {
		fmt.Fprintf(b.stderr, "perfbench: %s: verify: %v\n", b.name, err)
		for i := 0; i < covered && i < len(l.failed); i++ {
			l.failed[i] = true
		}
	}
	return l
}

// check reports whether op i failed, printing why.
func (b *bench) check(i int, fp string, err error) bool {
	if err != nil {
		fmt.Fprintf(b.stderr, "perfbench: %s op %d: %v\n", b.name, i, err)
		return true
	}
	if k, ok := refIndex(b.name, i); ok && k < len(b.ref) && fp != b.ref[k] {
		fmt.Fprintf(b.stderr, "perfbench: %s op %d: fingerprint %q, reference %q\n", b.name, i, fp, b.ref[k])
		return true
	}
	return false
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced(dur time.Duration) (*result, error) {
	w, setups, err := b.setup()
	if err != nil {
		return nil, err
	}
	l := b.closedLoop(w, dur, 0, nil)
	ops := float64(len(l.lat))
	ms := durationsIn(l.lat, time.Millisecond)
	failed := l.failures()
	cpuMs := durationsIn(l.cpuLat, time.Millisecond)
	fmt.Fprintf(b.stderr, "perfbench: %s seed %d: %d ops in %.2f CPU-s, p50 %.3f ms, p90 %.3f ms (as read %.3f, %.3f), fail_ratio %g\n",
		b.name, b.seed, len(l.lat), l.busy.Seconds(), percentile(ms, 50), percentile(ms, 90),
		percentile(cpuMs, 50), percentile(cpuMs, 90), ratio(float64(failed), ops))
	return &result{
		Correct:   failed == 0,
		Attempted: len(l.lat),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {median(durationsIn(setups, time.Second)), "s"},
			"ops_per_s":       {ops / l.busy.Seconds(), "1/s"},
			"op_ms_p50":       {percentile(ms, 50), "ms"},
			"op_ms_p90":       {percentile(ms, 90), "ms"},
			"allocs_per_op":   {float64(l.mallocs) / ops, "count"},
			"alloc_kb_per_op": {float64(l.bytes) / 1024 / ops, "KiB"},
		},
	}, nil
}

// sampleOps is how many ops of each other workload a traced run adds,
// so that every traced run reports every per-layer metric.
var sampleOps = map[string]int{"search": 6, "chaos": 20, "montecarlo": 100}

// traced measures the per-layer metrics. It runs the workload untraced
// for half the time, replays the same ops with spans around every
// layer call (the ratio of the two medians is the tracing overhead),
// adds a few ops of the other workloads, runs the layer probes, and
// writes the spans to .bench_build/trace.
func (b *bench) traced(dur time.Duration) (*result, error) {
	w, _, err := b.setup()
	if err != nil {
		return nil, err
	}
	plain := b.closedLoop(w, dur/2, 0, nil)
	tr := newTracer()
	l := b.closedLoop(w, 0, len(plain.lat), tr)
	attempted, failed := len(l.lat), l.failures()
	for _, name := range workloadNames {
		if name == b.name {
			continue
		}
		ob := newBench(name, b.seed, b.refs, b.stderr)
		ow, err := newWorkload(name, ob.in, b.refs)
		if err != nil {
			return nil, err
		}
		ol := ob.closedLoop(ow, 0, sampleOps[name], tr)
		attempted, failed = attempted+len(ol.lat), failed+ol.failures()
	}
	if err := runProbes(b.in, tr); err != nil {
		return nil, err
	}
	metrics, err := tr.layerMetrics()
	if err != nil {
		return nil, err
	}
	p50 := func(l *loop) float64 { return percentile(durationsIn(l.lat, time.Millisecond), 50) }
	metrics["trace.overhead_ratio"] = metric{p50(l) / p50(plain), "ratio"}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", b.name, b.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.stderr, "perfbench: %s seed %d traced: %d ops, %d spans written to %s, fail_ratio %g\n",
		b.name, b.seed, attempted, len(tr.spans), path, ratio(float64(failed), float64(attempted)))
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}
