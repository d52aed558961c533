//go:build !unix

package obs

// peakRSSMB is unavailable off unix; manifests omit it.
func peakRSSMB() float64 { return 0 }
