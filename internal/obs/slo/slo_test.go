package slo

import (
	"sync"
	"testing"
	"time"

	"slms/internal/obs"
)

// fixedClock returns a controllable time source starting at a round
// slot boundary so tests cross slots deterministically.
func fixedClock() (*time.Time, func() time.Time) {
	t := time.Unix(1_000_000, 0)
	return &t, func() time.Time { return t }
}

func TestRatesAndBudgets(t *testing.T) {
	now, clock := fixedClock()
	_ = now
	tr := New()
	tr.SetClock(clock)

	for i := 0; i < 98; i++ {
		tr.Observe("compile", 200, time.Millisecond)
	}
	tr.Observe("compile", 500, 2*time.Millisecond)
	tr.Observe("compile", 429, 2*time.Millisecond)

	st := tr.Snapshot()
	if !st.OK {
		t.Errorf("Status.OK = false, want true at exactly the budgets")
	}
	if len(st.Endpoints) != 1 {
		t.Fatalf("endpoints = %d, want 1", len(st.Endpoints))
	}
	es := st.Endpoints[0]
	if es.Requests != 100 || es.Errors != 1 || es.Throttled != 1 {
		t.Errorf("counts = %d/%d/%d, want 100/1/1", es.Requests, es.Errors, es.Throttled)
	}
	if es.ErrorRate != 0.01 || es.ThrottleRate != 0.01 {
		t.Errorf("rates = %g/%g, want 0.01/0.01", es.ErrorRate, es.ThrottleRate)
	}
	if !es.ErrorBudgetOK || !es.ThrottleOK {
		t.Errorf("budget flags = %v/%v, want true/true", es.ErrorBudgetOK, es.ThrottleOK)
	}

	// One more error pushes the error rate over its 1% budget.
	tr.Observe("compile", 503, time.Millisecond)
	st = tr.Snapshot()
	if st.OK || st.Endpoints[0].ErrorBudgetOK {
		t.Errorf("error budget should be blown at ~2%%: %+v", st.Endpoints[0])
	}
}

func TestClientErrorsBurnNoBudget(t *testing.T) {
	_, clock := fixedClock()
	tr := New()
	tr.SetClock(clock)
	for i := 0; i < 10; i++ {
		tr.Observe("compile", 400, time.Millisecond)
	}
	es := tr.Snapshot().Endpoints[0]
	if es.Errors != 0 || es.ErrorRate != 0 {
		t.Errorf("4xx counted as errors: %+v", es)
	}
	if es.Requests != 10 {
		t.Errorf("requests = %d, want 10", es.Requests)
	}
}

func TestQuantiles(t *testing.T) {
	_, clock := fixedClock()
	tr := New()
	tr.SetClock(clock)
	// 90 fast requests, 10 slow: p50 stays in the fast bucket, p99
	// lands in the slow one. 1ms → bucket bound 2^20ns ≈ 1.05ms;
	// 100ms → 2^27ns ≈ 134ms.
	for i := 0; i < 90; i++ {
		tr.Observe("compile", 200, time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		tr.Observe("compile", 200, 100*time.Millisecond)
	}
	es := tr.Snapshot().Endpoints[0]
	fast := float64(uint64(1)<<20) / 1e9
	slow := float64(uint64(1)<<27) / 1e9
	if es.P50Seconds != fast {
		t.Errorf("p50 = %g, want %g", es.P50Seconds, fast)
	}
	if es.P99Seconds != slow {
		t.Errorf("p99 = %g, want %g", es.P99Seconds, slow)
	}
	if es.P95Seconds != slow {
		t.Errorf("p95 = %g, want %g (95th of 100 with 10 slow)", es.P95Seconds, slow)
	}
}

// TestQuantilesRankLikeRegistry: the window ranks quantiles by nearest
// rank, as the registry's histograms do. With 11 requests at 1ms and 1
// at 100ms, one request in twelve (8%) took 100ms, so p95 must land in
// the slow bucket; rounding the rank to nearest would report 1ms.
func TestQuantilesRankLikeRegistry(t *testing.T) {
	_, clock := fixedClock()
	tr := New()
	tr.SetClock(clock)
	reg := obs.NewRegistry()
	h := reg.Histogram("latency")
	durs := []time.Duration{100 * time.Millisecond}
	for i := 0; i < 11; i++ {
		durs = append(durs, time.Millisecond)
	}
	for _, d := range durs {
		tr.Observe("compile", 200, d)
		h.Observe(d)
	}
	es := tr.Snapshot().Endpoints[0]
	if slow := float64(uint64(1)<<27) / 1e9; es.P95Seconds != slow {
		t.Errorf("p95 = %g, want the 2^27ns bound %g (1 of 12 requests took 100ms)", es.P95Seconds, slow)
	}
	hs := reg.Snapshot().Histograms["latency"]
	if es.P50Seconds != hs.P50 || es.P99Seconds != hs.P99 {
		t.Errorf("window p50/p99 = %g/%g, registry histogram = %g/%g", es.P50Seconds, es.P99Seconds, hs.P50, hs.P99)
	}
	if p95 := hs.Buckets.Quantile(hs.Count, 0.95); es.P95Seconds != p95 {
		t.Errorf("window p95 = %g, registry buckets = %g", es.P95Seconds, p95)
	}
}

// TestWindowAges proves observations fall out of the rolling window:
// advance the clock past the whole window and the endpoint reads empty.
func TestWindowAges(t *testing.T) {
	now, clock := fixedClock()
	tr := New()
	tr.SetClock(clock)
	tr.Observe("compile", 500, time.Millisecond)
	if es := tr.Snapshot().Endpoints[0]; es.Requests != 1 {
		t.Fatalf("requests = %d, want 1", es.Requests)
	}

	*now = now.Add(slotDur*slotCount + slotDur)
	es := tr.Snapshot().Endpoints[0]
	if es.Requests != 0 || es.Errors != 0 {
		t.Errorf("window did not age out: %+v", es)
	}
	if !es.ErrorBudgetOK {
		t.Errorf("empty window should satisfy budgets")
	}
}

// TestSlotReuse proves a slot lapped by the ring restarts instead of
// accumulating across laps.
func TestSlotReuse(t *testing.T) {
	now, clock := fixedClock()
	tr := New()
	tr.SetClock(clock)
	tr.Observe("compile", 200, time.Millisecond)
	// One full lap later the same slot index comes up again.
	*now = now.Add(slotDur * slotCount)
	tr.Observe("compile", 200, time.Millisecond)
	es := tr.Snapshot().Endpoints[0]
	if es.Requests != 1 {
		t.Errorf("requests = %d, want 1 (old lap must not leak into the new)", es.Requests)
	}
}

func TestEndpointsSorted(t *testing.T) {
	_, clock := fixedClock()
	tr := New()
	tr.SetClock(clock)
	tr.Observe("schedule", 200, time.Millisecond)
	tr.Observe("compile", 200, time.Millisecond)
	tr.Observe("profile", 200, time.Millisecond)
	st := tr.Snapshot()
	want := []string{"compile", "profile", "schedule"}
	for i, ep := range st.Endpoints {
		if ep.Endpoint != want[i] {
			t.Fatalf("endpoint order = %v, want %v", st.Endpoints, want)
		}
	}
}

// TestOnBreachFiresOncePerTransition proves the breach hook fires on
// the healthy→breached transition only — not per failing request — and
// re-arms after the window recovers.
func TestOnBreachFiresOncePerTransition(t *testing.T) {
	now, clock := fixedClock()
	tr := New()
	tr.SetClock(clock)
	var fired []string
	tr.SetOnBreach(func(endpoint string, es EndpointStatus) {
		if es.ErrorBudgetOK && es.ThrottleOK {
			t.Errorf("hook fired with budgets OK: %+v", es)
		}
		fired = append(fired, endpoint)
	})

	// A lone 500 is a 100% error rate: breach. More 5xx inside the same
	// breach must not re-fire.
	tr.Observe("compile", 500, time.Millisecond)
	tr.Observe("compile", 500, time.Millisecond)
	tr.Observe("compile", 500, time.Millisecond)
	if len(fired) != 1 || fired[0] != "compile" {
		t.Fatalf("fired = %v, want exactly one breach for compile", fired)
	}

	// Age the window out, dilute with successes, and breach again: the
	// hook re-arms. The intermediate 5xx finds a healthy window (1 error
	// in 300), which resets the latch without firing.
	*now = now.Add(slotDur * (slotCount + 1))
	for i := 0; i < 299; i++ {
		tr.Observe("compile", 200, time.Millisecond)
	}
	tr.Observe("compile", 500, time.Millisecond) // 1/300 ≈ 0.3%: healthy, re-arms
	if len(fired) != 1 {
		t.Fatalf("hook fired inside the budget: %v", fired)
	}
	for i := 0; i < 5; i++ {
		tr.Observe("compile", 500, time.Millisecond) // pushes past 1%
	}
	if len(fired) != 2 {
		t.Errorf("fired = %v, want a second breach after recovery", fired)
	}

	// Healthy endpoints never evaluate the hook.
	tr.Observe("schedule", 200, time.Millisecond)
	if len(fired) != 2 {
		t.Errorf("success observation fired the hook: %v", fired)
	}
}

// TestConcurrentObserve runs Observe from many goroutines under the
// race detector and checks nothing is lost within one slot.
func TestConcurrentObserve(t *testing.T) {
	_, clock := fixedClock()
	tr := New()
	tr.SetClock(clock)
	const workers, per = 8, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Observe("compile", 200, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if es := tr.Snapshot().Endpoints[0]; es.Requests != workers*per {
		t.Errorf("requests = %d, want %d", es.Requests, workers*per)
	}
}
