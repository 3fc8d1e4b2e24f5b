package main

import (
	"time"
	"unsafe"
)

// Host calibration of the search workload's times.
//
// A search op allocates about 10 MB, so its CPU time depends on how much
// of the shared cache and memory bandwidth other guests of the host leave
// the allocator and the garbage collector. On a 2-vCPU Xeon VM the same
// op's CPU time moved between 14 and 35 ms, in phases of seconds to
// minutes, with the code unchanged, and a 30-second run's median measured
// which phases it met. So after every search op the benchmark runs a
// small fixed allocation kernel and reports the op's CPU time scaled by
// calRef over the kernel's time around that op. The kernel allocates and
// drops short linked lists in the same heap right after the op, so it
// meets the allocator, memory clearing and cache state the op left, and
// slows down with the op: over 5-second windows of a six-minute run, the
// slope of log op time on log kernel time was 1.02 with correlation 0.97,
// and op time over kernel time spread a seventh as much as op time.
// Kernels that tracked worse: lookups in a fixed table outside the heap
// (slope 1.2 to 1.6; it over-corrected when the host was quietest) and
// the same allocation kernel in a child process with its own heap
// (slope 1.3 to 1.6). The kernel is not program code, so a change to the
// program shows in full. Its garbage, a fifth of the op's, makes the
// collector run more often, and part of that work lands in op time; the
// reported allocation counts leave the kernel out. calEvery says which
// workloads are scaled and how often the kernel runs.

const (
	// calNodes is how many list nodes one calibration allocates.
	calNodes = 16000
	// calWindow is how many calibrations, centred on an op, give the
	// median that scales it.
	calWindow = 5
	// calRef is about the kernel's CPU time on the host above. It only
	// sets the scale: a scaled time reads as the op's CPU time on a host
	// where the kernel takes calRef.
	calRef = time.Millisecond
)

// calNode is a list node of 128 bytes, a size class of its own.
type calNode struct {
	next *calNode
	val  [15]uint64
}

// calNodeBytes is what one calibration node adds to the heap's
// allocated bytes.
const calNodeBytes = unsafe.Sizeof(calNode{})

// calSink keeps the kernel's last node reachable, so the allocations are
// not optimised away.
var calSink *calNode

// calibrate runs the kernel once and returns its CPU time: calNodes
// allocations of one calNode each, in lists of eight that become garbage
// as the next list begins.
func calibrate() time.Duration {
	t0 := cpuNow()
	var list *calNode
	for i := 0; i < calNodes; i++ {
		n := &calNode{next: list}
		n.val[i%len(n.val)] = uint64(i)
		list = n
		if i%8 == 7 {
			list = nil
		}
		calSink = n
	}
	return cpuNow() - t0
}

// calibrateMedian returns the median CPU time of n kernel runs, in
// nanoseconds.
func calibrateMedian(n int) float64 {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = calibrate()
	}
	return median(durationsIn(ds, time.Nanosecond))
}

// calEvery is, per workload, after how many ops the kernel runs; a
// workload without an entry is not scaled. The kernel's 2 MB of garbage
// is a fifth of a search op's, and running it after every fourth chaos
// case keeps it near that share of chaos's allocations. In two sets of
// 30-second chaos runs (6 and 10 seeds) scaling cut the spread of
// op_ms_p50 from 0.10 to 0.07 and from 0.06 to 0.05; that of op_ms_p90
// went from 0.06 to 0.03 and from 0.08 to 0.12. Scaling montecarlo
// (every tenth trial) raised them from 0.06 to 0.10 and from 0.04 to
// 0.15: a trial allocates 1.2 MB in small, short-lived timelines and
// tracks the kernel poorly, so it is not scaled.
var calEvery = map[string]int{"search": 1, "chaos": 4}

// scaleAll scales each op time lat[i] by calRef over the median of the
// kernel times cal[j-calWindow/2 .. j+calWindow/2], the window clipped
// at the ends, where cal[j] is the kernel run after op j*every, the
// first op of op i's group of every ops.
func scaleAll(lat, cal []time.Duration, every int) []time.Duration {
	out := make([]time.Duration, len(lat))
	cs := durationsIn(cal, time.Nanosecond)
	for i, d := range lat {
		j := i / every
		lo, hi := max(0, j-calWindow/2), min(len(cs), j+calWindow/2+1)
		out[i] = scale(d, median(cs[lo:hi]))
	}
	return out
}

// scale returns d as it would read where the kernel takes calRef, given
// that it took calNs nanoseconds.
func scale(d time.Duration, calNs float64) time.Duration {
	return time.Duration(float64(d) * float64(calRef) / calNs)
}
