package obs

import (
	"expvar"
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
// The default registry is published through expvar under "slms" (GET
// /debug/vars on any process that serves expvar) and dumps as sorted
// plain text via MetricsText.

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
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
}

// HistStat is a histogram snapshot in seconds. Buckets carries the raw
// per-bucket counts (bucket i holds durations with log2(ns) == i) for
// exporters that need the distribution — the Prometheus text exporter
// renders them as cumulative le buckets — and is excluded from the JSON
// forms, whose schema predates it.
type HistStat struct {
	Count   int64              `json:"count"`
	Seconds float64            `json:"seconds"`
	Mean    float64            `json:"mean_seconds"`
	Max     float64            `json:"max_seconds"`
	P50     float64            `json:"p50_seconds"`
	P99     float64            `json:"p99_seconds"`
	Buckets [histBuckets]int64 `json:"-"`
}

func (h *Histogram) stat() HistStat {
	s := HistStat{Count: h.count.Load()}
	s.Seconds = float64(h.sum.Load()) / 1e9
	s.Max = float64(h.max.Load()) / 1e9
	if s.Count > 0 {
		s.Mean = s.Seconds / float64(s.Count)
		s.P50 = h.quantile(s.Count, 0.50)
		s.P99 = h.quantile(s.Count, 0.99)
	}
	for i := 0; i < histBuckets; i++ {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// BucketBound returns the upper bound, in seconds, of log2(ns) bucket
// i — the same bound quantile estimation uses.
func BucketBound(i int) float64 { return float64(uint64(1)<<uint(i)) / 1e9 }

// quantile returns the upper bound (in seconds) of the bucket holding
// the q-th observation.
func (h *Histogram) quantile(count int64, q float64) float64 {
	target := int64(math.Ceil(q * float64(count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= target {
			return float64(uint64(1)<<uint(i)) / 1e9
		}
	}
	return float64(h.max.Load()) / 1e9
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

// Default is the process-wide registry, published via expvar as "slms".
var Default = NewRegistry()

func init() {
	expvar.Publish("slms", expvar.Func(func() any { return Default.Snapshot() }))
}

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

// Snapshot captures every metric for serialization (expvar, JSON).
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
