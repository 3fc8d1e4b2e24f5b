//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time the process has used. It leaves out time
// the process waited for a CPU and, on kernels with paravirtual steal
// accounting, time the hypervisor gave the virtual CPU to other guests:
// on a shared host those waits swing run to run by more than any bound
// worth setting.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		// Only a kernel without CPU-time clocks (before 2.6.12) can get
		// here.
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
