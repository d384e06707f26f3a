// Package slo keeps rolling-window service-level accounting for the
// slmsd endpoints: latency quantiles (p50/p95/p99), error rate, and
// throttle (429) rate over the last few minutes, checked against fixed
// budgets. Unlike the obs registry's histograms — which accumulate over
// the whole process life — these windows age out, so /v1/status answers
// "how is the service doing right now", not "since it started". Each
// window slot counts latencies in obs.Buckets, the registry histograms'
// geometry, and quantiles are read by the same nearest-rank rule, so a
// window and a histogram fed the same requests report the same p50/p99.
package slo

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slms/internal/obs"
)

// Window geometry: slotCount slots of slotDur each. A slot is reused
// once it falls out of the window (epoch check), so memory is fixed per
// endpoint regardless of uptime.
const (
	slotDur   = 5 * time.Second
	slotCount = 60 // 60 × 5s = a 5-minute rolling window
)

// Budgets a healthy service stays under, as fractions of requests in
// the window. Error counts 5xx only: a 4xx is the client's mistake and
// burns no budget. Throttles (429) get their own, looser budget —
// shedding load under pressure is designed behavior, but sustained
// shedding means the deployment is undersized.
const (
	ErrorBudget    = 0.01
	ThrottleBudget = 0.05
)

// slot is one time-slice of an endpoint's window.
type slot struct {
	mu        sync.Mutex
	epoch     int64 // time-slot index; a stale epoch means the slot aged out
	requests  int64
	errors    int64 // 5xx
	throttled int64 // 429
	sumNS     int64
	lat       obs.Buckets
}

// Endpoint accumulates one endpoint's rolling window.
type Endpoint struct {
	name  string
	slots [slotCount]slot
	// breached latches "the window is over budget" so the breach hook
	// fires once per transition, not once per failing request; it
	// resets when an error-path observation finds the window healthy
	// again.
	breached atomic.Bool
}

// Tracker holds per-endpoint windows. The zero value is not usable;
// call New.
type Tracker struct {
	mu        sync.Mutex
	endpoints map[string]*Endpoint
	order     []string
	now       func() time.Time // injectable for tests

	onBreach atomic.Value // func(endpoint string, s EndpointStatus)
}

// SetOnBreach installs fn to run when an endpoint's rolling window
// transitions into budget breach (error rate past ErrorBudget or
// throttle rate past ThrottleBudget). The check runs only on 5xx/429
// observations — a healthy request can't create a breach — so the
// success path cost is unchanged. fn runs on the observing request's
// goroutine with the breaching window's snapshot; it fires once per
// transition and re-arms when the window recovers.
func (t *Tracker) SetOnBreach(fn func(endpoint string, s EndpointStatus)) {
	t.onBreach.Store(fn)
}

// New returns an empty tracker.
func New() *Tracker {
	return &Tracker{endpoints: map[string]*Endpoint{}, now: time.Now}
}

// SetClock replaces the tracker's time source (tests only).
func (t *Tracker) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// Endpoint returns (registering if needed) the named endpoint.
func (t *Tracker) Endpoint(name string) *Endpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.endpoints[name]
	if !ok {
		e = &Endpoint{name: name}
		t.endpoints[name] = e
		t.order = append(t.order, name)
		sort.Strings(t.order)
	}
	return e
}

// Observe records one finished request on the named endpoint.
func (t *Tracker) Observe(endpoint string, status int, d time.Duration) {
	t.mu.Lock()
	now := t.now()
	t.mu.Unlock()
	e := t.Endpoint(endpoint)
	e.observe(now, status, d)
	if status == 429 || status >= 500 {
		t.checkBreach(e, now)
	}
}

// checkBreach evaluates the endpoint's window after a budget-burning
// observation and fires the breach hook on a healthy→breached
// transition.
func (t *Tracker) checkBreach(e *Endpoint, now time.Time) {
	fn, _ := t.onBreach.Load().(func(string, EndpointStatus))
	if fn == nil {
		return
	}
	es := e.snapshot(now)
	if !es.ErrorBudgetOK || !es.ThrottleOK {
		if e.breached.CompareAndSwap(false, true) {
			fn(e.name, es)
		}
		return
	}
	e.breached.Store(false)
}

func (e *Endpoint) observe(now time.Time, status int, d time.Duration) {
	epoch := now.UnixNano() / int64(slotDur)
	s := &e.slots[epoch%slotCount]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != epoch {
		// The slot belongs to a lap that aged out; restart it.
		s.epoch = epoch
		s.requests, s.errors, s.throttled, s.sumNS = 0, 0, 0, 0
		s.lat = obs.Buckets{}
	}
	s.requests++
	switch {
	case status == 429:
		s.throttled++
	case status >= 500:
		s.errors++
	}
	s.sumNS += max(int64(d), 0)
	s.lat.Add(d)
}

// EndpointStatus is one endpoint's rolling-window summary.
type EndpointStatus struct {
	Endpoint      string  `json:"endpoint"`
	WindowSeconds float64 `json:"window_seconds"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	Throttled     int64   `json:"throttled"`
	ErrorRate     float64 `json:"error_rate"`
	ThrottleRate  float64 `json:"throttle_rate"`
	P50Seconds    float64 `json:"p50_seconds"`
	P95Seconds    float64 `json:"p95_seconds"`
	P99Seconds    float64 `json:"p99_seconds"`
	MeanSeconds   float64 `json:"mean_seconds"`
	ErrorBudgetOK bool    `json:"error_budget_ok"`
	ThrottleOK    bool    `json:"throttle_budget_ok"`
}

// Status is the tracker-wide summary served at /v1/status.
type Status struct {
	WindowSeconds float64          `json:"window_seconds"`
	OK            bool             `json:"ok"`
	Endpoints     []EndpointStatus `json:"endpoints"`
}

// Snapshot merges each endpoint's live slots into its window summary.
// OK is the conjunction of every endpoint's budget checks.
func (t *Tracker) Snapshot() Status {
	t.mu.Lock()
	now := t.now()
	names := append([]string(nil), t.order...)
	eps := make([]*Endpoint, len(names))
	for i, n := range names {
		eps[i] = t.endpoints[n]
	}
	t.mu.Unlock()

	st := Status{WindowSeconds: (slotDur * slotCount).Seconds(), OK: true}
	for _, e := range eps {
		es := e.snapshot(now)
		if !es.ErrorBudgetOK || !es.ThrottleOK {
			st.OK = false
		}
		st.Endpoints = append(st.Endpoints, es)
	}
	return st
}

func (e *Endpoint) snapshot(now time.Time) EndpointStatus {
	epoch := now.UnixNano() / int64(slotDur)
	oldest := epoch - slotCount + 1

	var merged obs.Buckets
	es := EndpointStatus{
		Endpoint:      e.name,
		WindowSeconds: (slotDur * slotCount).Seconds(),
	}
	var sumNS int64
	for i := range e.slots {
		s := &e.slots[i]
		s.mu.Lock()
		if s.epoch >= oldest && s.epoch <= epoch {
			es.Requests += s.requests
			es.Errors += s.errors
			es.Throttled += s.throttled
			sumNS += s.sumNS
			for b, n := range s.lat {
				merged[b] += n
			}
		}
		s.mu.Unlock()
	}
	if es.Requests > 0 {
		es.ErrorRate = float64(es.Errors) / float64(es.Requests)
		es.ThrottleRate = float64(es.Throttled) / float64(es.Requests)
		es.MeanSeconds = float64(sumNS) / 1e9 / float64(es.Requests)
		es.P50Seconds = merged.Quantile(es.Requests, 0.50)
		es.P95Seconds = merged.Quantile(es.Requests, 0.95)
		es.P99Seconds = merged.Quantile(es.Requests, 0.99)
	}
	es.ErrorBudgetOK = es.ErrorRate <= ErrorBudget
	es.ThrottleOK = es.ThrottleRate <= ThrottleBudget
	return es
}
