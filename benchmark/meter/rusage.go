package meter

import (
	"syscall"
	"time"
)

// CPUTime is the process's user+system CPU time so far (getrusage; like
// the rest of the harness this assumes a Unix host).
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// PeakRSSBytes is the process's resident-set high-water mark
// (ru_maxrss, which Linux reports in KiB — the VmHWM figure).
func PeakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss) << 10
}
