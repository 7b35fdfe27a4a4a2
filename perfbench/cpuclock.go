package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time the process has used, all threads included.
//
// It times the step tail of the tune-* workloads. On a shared virtual
// machine the wall clock also counts the slices the hypervisor gives to
// other guests (steal time), which come in bursts of tens of milliseconds
// and moved wall-clock step p95 by up to 70% between runs: a tail is made
// of the steps a burst hit. With paravirtual time accounting the kernel
// leaves steal out of a task's CPU time. Background GC work on other
// threads is included.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
