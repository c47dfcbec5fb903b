// Package obs provides the allocation-conscious observability primitives
// the exploration engine, the production runtime, and the .psl interpreter
// record into: atomic counters and high-water gauges, a bounded power-of-two
// histogram, an interned (machine state × event) coverage set, and a
// time-bucketed growth curve for coverage-over-wall-clock reporting.
//
// Everything in this package is designed for hot paths that must not
// allocate in steady state: counters, gauges and histograms are fixed-size
// atomics; the coverage set interns each new triple once (the only
// allocating operation) as a counter its callers may keep and add to with
// one atomic add; curves allocate only when a sample is actually taken,
// which happens at most once per bucket interval. Snapshotting — the
// allocating, sorting, JSON-friendly view — is always a separate call meant
// to run off the measured path (between iterations, at progress ticks, or
// from a debug endpoint).
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// MaxGauge tracks the high-water mark of an observed quantity (e.g. mailbox
// depth). The zero value is ready to use.
type MaxGauge struct{ v atomic.Int64 }

// Observe raises the gauge to x if x exceeds the current maximum.
func (g *MaxGauge) Observe(x int64) {
	for {
		cur := g.v.Load()
		if x <= cur || g.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Load returns the high-water mark.
func (g *MaxGauge) Load() int64 { return g.v.Load() }

// histogramBuckets is the fixed bucket count of Histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. exponentially growing ranges
// [2^(i-1), 2^i). 64 buckets cover the whole int64 range, so recording
// never needs bounds checks beyond the bit length.
const histogramBuckets = 64

// Histogram is a bounded, fixed-size histogram with power-of-two buckets,
// safe for concurrent recording. The zero value is ready to use; Observe
// never allocates.
type Histogram struct {
	buckets [histogramBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     MaxGauge
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.max.Observe(v)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistogramBucket is one non-empty bucket of a histogram snapshot: Count
// observations were at most Le (and above the previous bucket's Le).
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON-friendly view of a Histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Mean    float64           `json:"mean"`
	Max     int64             `json:"max"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot returns the histogram's current state with empty buckets elided.
// Concurrent Observe calls may be partially reflected; snapshots are meant
// for reporting, not exact accounting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Max: h.max.Load()}
	if s.Count > 0 {
		s.Mean = float64(h.sum.Load()) / float64(s.Count)
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := int64(math.MaxInt64) // bits.Len64(v) == i means v <= 2^i - 1
		if i < 63 {
			le = int64(1)<<i - 1
		}
		s.Buckets = append(s.Buckets, HistogramBucket{Le: le, Count: n})
	}
	return s
}
