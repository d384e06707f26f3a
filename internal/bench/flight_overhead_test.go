package bench

import (
	"os"
	"testing"
	"time"

	"slms/internal/obs/flight"
)

// The always-on flight recorder must be unmeasurable on the serving
// path: this guard bounds its worst-case per-request cost at under 1%
// of an average request's compute on the bench corpus. Like the
// disabled-tracer guard above it, the bound is computed, not timed end
// to end: micro-benchmarks price Record for both shapes of record the
// server fills (a cached hit, and a full-path record with spans and
// decisions), one untraced AllFigures run supplies the corpus's real
// per-row compute cost, and the pricier of the two must stay under 1%
// of it.
// Env-gated for the same reason: it runs the whole figure suite; CI
// sets SLMS_OVERHEAD_CHECK=1.
func TestFlightRecorderOverheadUnderOnePercent(t *testing.T) {
	if os.Getenv("SLMS_OVERHEAD_CHECK") == "" {
		t.Skip("set SLMS_OVERHEAD_CHECK=1 to run the overhead guard")
	}

	// Price one record of each shape, recorder enabled with the
	// production defaults and a realistic request body.
	rec := flight.New(flight.Config{Cooldown: time.Hour})
	ring := rec.Endpoint("compile")
	body := []byte(`{"source": "float A[100]; float B[100]; float t = 0.0; float s = 0.0;` +
		` for (i = 0; i < 100; i++) { t = A[i] * B[i]; s = s + t; }"}`)

	hitObs := flight.Obs{
		Status: 200, RequestID: "r00000042", Fingerprint: "6ea98a2c6f0d4e6d",
		Cache: "hit", DeadlineMS: -1, Dur: 517 * time.Microsecond, Body: body,
	}
	fastOp := nsPerOp(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ring.Record(&hitObs)
		}
	}))
	slowObs := flight.Obs{
		Status: 200, RequestID: "r00000042", Fingerprint: "6ea98a2c6f0d4e6d",
		Cache: "miss", DeadlineMS: 9999, Dur: 517 * time.Microsecond, Body: body,
		Spans:     []flight.SpanNote{{Name: "server.compile", DurUS: 517}},
		Decisions: []flight.DecisionNote{{Loop: "1:40", Code: "SLMS220", Verdict: "apply"}},
	}
	slowOp := nsPerOp(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ring.Record(&slowObs)
		}
	}))
	perRecord := max(fastOp, slowOp)

	// The corpus's real compute: every figure row is one pipeline
	// request's worth of work, so wall/rows is what an average served
	// request costs — and what one record is priced against.
	ResetHarnessState()
	start := time.Now()
	figs, err := AllFigures()
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	rows := 0
	for _, f := range figs {
		rows += len(f.Rows)
	}
	if rows == 0 {
		t.Fatal("bench corpus produced no rows")
	}

	perRequest := float64(wall.Nanoseconds()) / float64(rows)
	budget := perRequest / 100
	t.Logf("record cost: hit %.1fns, full path %.1fns; corpus: %d rows in %v (%.0fns/request, 1%% budget %.0fns)",
		fastOp, slowOp, rows, wall, perRequest, budget)
	if perRecord > budget {
		t.Errorf("flight record cost %.1fns exceeds 1%% of the corpus per-request compute %.0fns",
			perRecord, perRequest)
	}
}
