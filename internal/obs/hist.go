package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count of every Histogram. Bucket i holds
// samples whose nanosecond value has bit length i — i.e. the half-open
// range [2^(i-1), 2^i) ns — so the buckets cover sub-microsecond events
// through multi-minute phases in uniform log2 resolution. 44 bits spans
// about 4.8 hours, far beyond any single instrumented operation here;
// larger samples clamp into the top bucket.
const histBuckets = 44

// Histogram is a lock-free fixed-bucket latency histogram: one atomic add
// into a log2 bucket per observation, no allocation, no lock, safe for
// concurrent use from worker goroutines. Like Counter it is process-wide,
// registered by name, and nil-safe, so hot paths observe unconditionally;
// run manifests report per-run deltas with p50/p95/p99 estimates.
//
// Fixed log2 buckets trade precision for a bounded, branch-light hot
// path: a quantile estimate is exact to within its bucket (at most ~41%
// relative error, typically far less), which is ample for spotting
// regressions an order of magnitude or even a factor of two wide.
type Histogram struct {
	name    string
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNS(int64(d)) }

// ObserveNS records one sample measured in nanoseconds. Negative samples
// (clock steps) clamp to zero.
func (h *Histogram) ObserveNS(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
}

// Count returns the total number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// histCounts is a point-in-time copy of a histogram's raw state, used to
// baseline runs and to compute deltas.
type histCounts struct {
	count, sumNS int64
	buckets      [histBuckets]int64
}

// counts snapshots the histogram's raw state.
func (h *Histogram) counts() histCounts {
	var c histCounts
	if h == nil {
		return c
	}
	c.count = h.count.Load()
	c.sumNS = h.sumNS.Load()
	for i := range c.buckets {
		c.buckets[i] = h.buckets[i].Load()
	}
	return c
}

// sub returns the bucket-wise difference c - base, clamped at zero so a
// histogram registered mid-run never yields negative deltas.
func (c histCounts) sub(base histCounts) histCounts {
	d := histCounts{count: c.count - base.count, sumNS: c.sumNS - base.sumNS}
	if d.count < 0 {
		d.count = 0
	}
	if d.sumNS < 0 {
		d.sumNS = 0
	}
	for i := range d.buckets {
		if v := c.buckets[i] - base.buckets[i]; v > 0 {
			d.buckets[i] = v
		}
	}
	return d
}

// bucketValueNS estimates the representative value of bucket i: the
// geometric midpoint of [2^(i-1), 2^i), i.e. 2^(i-1/2) ns. Bucket 0 holds
// only zero samples.
func bucketValueNS(i int) float64 {
	if i <= 0 {
		return 0
	}
	return math.Exp2(float64(i) - 0.5)
}

// quantileNS estimates the q-quantile (0 < q <= 1) from the bucket counts.
func (c histCounts) quantileNS(q float64) float64 {
	if c.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(c.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range c.buckets {
		cum += c.buckets[i]
		if cum >= rank {
			return bucketValueNS(i)
		}
	}
	return bucketValueNS(histBuckets - 1)
}

// HistogramSnapshot is a histogram's manifest form: the sample count plus
// mean and estimated percentiles, all in milliseconds. Percentiles are
// log2-bucket estimates (see Histogram); Max is the upper bound of the
// highest occupied bucket.
type HistogramSnapshot struct {
	Count  int64   `json:"count" gate:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms" gate:"lower"`
	P95MS  float64 `json:"p95_ms" gate:"lower"`
	P99MS  float64 `json:"p99_ms" gate:"lower"`
	MaxMS  float64 `json:"max_ms"`
}

// snapshot reduces raw bucket counts to the manifest form.
func (c histCounts) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: c.count}
	if c.count == 0 {
		return s
	}
	round := func(ns float64) float64 { return math.Round(ns/1e3) / 1e3 } // µs precision, in ms
	s.MeanMS = round(float64(c.sumNS) / float64(c.count))
	s.P50MS = round(c.quantileNS(0.50))
	s.P95MS = round(c.quantileNS(0.95))
	s.P99MS = round(c.quantileNS(0.99))
	for i := histBuckets - 1; i >= 0; i-- {
		if c.buckets[i] > 0 {
			s.MaxMS = round(math.Exp2(float64(i)))
			break
		}
	}
	return s
}

// Snapshot reduces the histogram's lifetime samples to the manifest form.
// Callers that need per-run deltas should snapshot through run manifests
// instead; Snapshot is for services that own a histogram for exactly one
// run (the control plane's decision latency) and want its quantiles
// directly. Nil-safe: a nil histogram yields a zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return h.counts().snapshot()
}

// NewHistogram returns the process-wide histogram with the given name,
// creating it on first use. Keep the pointer in a package var: lookups
// take a lock, Observe does not.
func NewHistogram(name string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if h, ok := registry.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	registry.hists[name] = h
	return h
}

// histSnapshots returns the raw state of every registered histogram,
// keyed by name.
func histSnapshots() map[string]histCounts {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]histCounts, len(registry.hists))
	for name, h := range registry.hists {
		out[name] = h.counts()
	}
	return out
}
