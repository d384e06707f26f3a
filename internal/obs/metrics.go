package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The metrics registry. Registration (name lookup) takes a mutex;
// updates are single atomic operations, so hot paths hoist the handle
// once and pay only the atomic:
//
//	var simRuns = obs.CounterName("sim.runs")
//	...
//	simRuns.Add(1)
//
// The default registry dumps as sorted plain text via MetricsText;
// slmsd serves it in the Prometheus text format at /metrics.

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter. Counters are monotonic over a process's
// serving life; Reset exists for the pipeline cache's hit and miss
// counters, which restart with the cache (see memo.Reset) so per-run
// counts start from zero.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a last-write-wins instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is one bucket per power-of-two nanosecond range; 64
// covers every representable duration.
const histBuckets = 64

// Buckets is the one latency-bucket geometry: bucket i counts the
// durations whose log2(ns) is i, so its upper bound is 2^i ns. The
// registry's histograms snapshot into it and slmsd's rolling SLO window
// accumulates in it, so both read quantiles by the same rule.
type Buckets [histBuckets]int64

// bucketOf returns the bucket index of d (negative durations count as 0).
func bucketOf(d time.Duration) int { return bits.Len64(uint64(max(d, 0))) }

// Add counts one duration.
func (b *Buckets) Add(d time.Duration) { b[bucketOf(d)]++ }

// Quantile returns the upper bound, in seconds, of the bucket holding
// the q-th of count observations by nearest rank: rank ceil(q*count),
// at least 1. If the buckets hold fewer observations than that (a
// snapshot racing an update), it returns the highest non-empty bucket's
// bound.
func (b *Buckets) Quantile(count int64, q float64) float64 {
	target := max(int64(math.Ceil(q*float64(count))), 1)
	var seen int64
	top := -1
	for i, n := range b {
		if n == 0 {
			continue
		}
		seen += n
		top = i
		if seen >= target {
			return BucketBound(i)
		}
	}
	if top < 0 {
		return 0
	}
	return BucketBound(top)
}

// BucketBound returns the upper bound, in seconds, of bucket i.
func BucketBound(i int) float64 { return float64(uint64(1)<<uint(i)) / 1e9 }

// Histogram accumulates durations into log2(ns) buckets. All fields
// update with single atomics; quantiles are approximate (bucket upper
// bounds) but bias is bounded to 2x, plenty for phase timing.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := max(int64(d), 0)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketOf(d)].Add(1)
}

// HistStat is a histogram snapshot in seconds. Buckets carries the raw
// per-bucket counts for exporters that need the distribution — the
// Prometheus text exporter renders them as cumulative le buckets — and
// is excluded from the JSON forms, whose schema predates it.
type HistStat struct {
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
	Mean    float64 `json:"mean_seconds"`
	Max     float64 `json:"max_seconds"`
	P50     float64 `json:"p50_seconds"`
	P99     float64 `json:"p99_seconds"`
	Buckets Buckets `json:"-"`
}

func (h *Histogram) stat() HistStat {
	s := HistStat{Count: h.count.Load()}
	s.Seconds = float64(h.sum.Load()) / 1e9
	s.Max = float64(h.max.Load()) / 1e9
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	if s.Count > 0 {
		s.Mean = s.Seconds / float64(s.Count)
		s.P50 = s.Buckets.Quantile(s.Count, 0.50)
		s.P99 = s.Buckets.Quantile(s.Count, 0.99)
	}
	return s
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Default is the process-wide registry.
var Default = NewRegistry()

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterName returns the named counter of the default registry.
func CounterName(name string) *Counter { return Default.Counter(name) }

// GaugeName returns the named gauge of the default registry.
func GaugeName(name string) *Gauge { return Default.Gauge(name) }

// HistName returns the named histogram of the default registry.
func HistName(name string) *Histogram { return Default.Histogram(name) }

// PhaseHist returns the duration histogram of one pipeline phase
// ("phase.<name>" in the default registry).
func PhaseHist(name string) *Histogram { return Default.Histogram("phase." + name) }

// Snapshot captures every metric for serialization (JSON).
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]HistStat `json:"histograms"`
}

// Snapshot returns a point-in-time copy of all metrics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistStat, len(r.hists)),
	}
	for n, c := range r.counts {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.stat()
	}
	return s
}

// Reset drops every registered metric (tests and fresh bench runs).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.hists = map[string]*Histogram{}
}

// Text renders the registry as sorted plain text, one metric per line.
func (r *Registry) Text() string {
	s := r.Snapshot()
	var lines []string
	for n, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("counter %-40s %d", n, v))
	}
	for n, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("gauge   %-40s %d", n, v))
	}
	for n, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf(
			"hist    %-40s count=%d total=%.6fs mean=%.9fs p50=%.9fs p99=%.9fs max=%.9fs",
			n, h.Count, h.Seconds, h.Mean, h.P50, h.P99, h.Max))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// MetricsText renders the default registry as plain text.
func MetricsText() string { return Default.Text() }
