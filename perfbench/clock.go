package main

import (
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID: CPU time consumed by
// every thread of the process, the Go GC's workers included.
const clockProcessCPUTime = 2

// cpuNow returns the process CPU time. On a shared VM the wall time of a
// CPU-bound phase mostly measures the neighbours; CPU time measures the
// program.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// stamp is one reading of both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: cpuNow()} }

// span is the CPU and wall time between two stamps.
type span struct{ cpu, wall time.Duration }

func since(s stamp) span {
	e := now()
	return span{cpu: e.cpu - s.cpu, wall: e.wall.Sub(s.wall)}
}

func (a span) add(b span) span { return span{cpu: a.cpu + b.cpu, wall: a.wall + b.wall} }

// gcStats reads the runtime's cumulative GC cycle count and GC CPU time.
func gcStats() (cycles uint64, cpu float64) {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64()
}
