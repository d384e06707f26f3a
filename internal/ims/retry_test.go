package ims

import (
	"testing"

	"slms/internal/machine"
	"slms/internal/sched"
)

// givingUpScheduler refuses the first fail probes, then delegates to
// the real heuristic — driving ScheduleWith's II bump-and-retry path a
// known number of times over one graph.
type givingUpScheduler struct {
	Heuristic
	fail  int
	calls int
}

func (s *givingUpScheduler) Schedule(g *sched.Graph, d *machine.Desc, ii int) (*sched.Schedule, error) {
	s.calls++
	if s.calls <= s.fail {
		return nil, sched.ErrGiveUp
	}
	return s.Heuristic.Schedule(g, d, ii)
}

const retrySrc = `
	float A[128]; float B[128];
	float s = 0.0;
	for (i = 0; i < 120; i++) {
		s += A[i] * B[i];
	}
`

// TestPriorityDerivedOncePerIISearch pins the retry-path invariant: the
// height-based priority order does not depend on the II, so one
// ScheduleWith call derives it exactly once no matter how many II
// probes the search needs. (The order used to be recomputed — heights,
// sort and all — on every bumped II.)
func TestPriorityDerivedOncePerIISearch(t *testing.T) {
	d := machine.IA64Like()
	b := loopBody(t, retrySrc)
	s := &givingUpScheduler{fail: 5}
	before := sched.PriorityComputations()
	r := ScheduleWith(b, d, true, Config{place: s})
	if !r.OK {
		t.Fatalf("rejected: %s", r.Reason)
	}
	if s.calls < 6 {
		t.Fatalf("retry path not exercised: only %d probes", s.calls)
	}
	if got := sched.PriorityComputations() - before; got != 1 {
		t.Errorf("height priority derived %d times across %d II probes, want exactly 1", got, s.calls)
	}
}

// BenchmarkIIRetrySearch measures a full schedule call whose II search
// retries 8 times, and fails outright if the priority order is derived
// more than once per graph — the regression guard for reintroducing a
// per-retry re-sort.
func BenchmarkIIRetrySearch(b *testing.B) {
	d := machine.IA64Like()
	blk := loopBody(b, retrySrc)
	start := sched.PriorityComputations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &givingUpScheduler{fail: 8}
		if r := ScheduleWith(blk, d, true, Config{place: s}); !r.OK {
			b.Fatal(r.Reason)
		}
	}
	b.StopTimer()
	if got, want := sched.PriorityComputations()-start, int64(b.N); got != want {
		b.Fatalf("priority derived %d times over %d searches (re-sort per II retry regressed)", got, want)
	}
}
