package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// processCPU returns the CPU time the process has used so far, in every
// thread: the simulator's goroutine and the garbage collector that serves
// it.  Unlike wall time it leaves out time spent waiting for a CPU behind
// other processes.
func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error()) // Linux always has this clock
	}
	return time.Duration(ts.Nano())
}
