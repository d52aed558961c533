//go:build unix

package obs

import (
	"runtime"
	"syscall"
)

// peakRSSMB returns the process's peak resident set size in MiB, from
// getrusage(2), or 0 if the call fails; ru_maxrss is in KiB on Linux and
// in bytes on Darwin.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kib := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kib /= 1024
	}
	return kib / 1024
}
