package main

import (
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/pipeline"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []string {
		g := newGenerator(seed, bench.Kernels())
		var out []string
		for i := 0; i < 3000; i++ {
			r := g.nextReq(i%freshEvery == 0)
			out = append(out, fmt.Sprintf("%d %s", r.class, g.render(r.b)))
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !slices.Equal(a, b) {
		t.Fatal("two generators with seed 7 drew different streams")
	}
	if slices.Equal(a, c) {
		t.Fatal("seeds 7 and 8 drew the same stream")
	}
}

// freshEvery stands in for the timed phase's pace in the generator
// tests: every freshEvery-th request is due fresh.
const freshEvery = 150

func TestGeneratorMixAndLRUBounds(t *testing.T) {
	g := newGenerator(1, bench.Kernels())
	touched := map[*body]int{}       // insertion count at each body's last touch
	for g.ins < evictAge+recentMax { // set-up's warm-up
		touched[g.fresh()] = g.ins - 1
	}
	var counts [numClasses]int
	const n = 30000
	for i := 0; i < n; i++ {
		ins := g.ins
		r := g.nextReq(i%freshEvery == 0)
		counts[r.class]++
		last, sent := touched[r.b]
		switch r.class {
		case classFresh:
			if sent {
				t.Fatalf("request %d: fresh body sent before", i)
			}
		case classRecent:
			if age := ins - r.b.insAt; age < recentMin || age > recentMax {
				t.Fatalf("request %d: recent repeat inserted %d insertions ago", i, age)
			}
		case classEvicted:
			if !sent || ins-last < evictAge {
				t.Fatalf("request %d: evicted repeat touched %d insertions ago (sent before: %v)", i, ins-last, sent)
			}
		}
		touched[r.b] = ins
	}
	// After the warm-up nearly every repeat finds a body of its class.
	repeats := n - n/freshEvery
	if counts[classFresh] > n/freshEvery+n/1000 || counts[classEvicted] < repeats*repeatEvicted/repeatBlock-n/1000 {
		t.Fatalf("class counts %v drift from %d fresh and %d of %d repeats evicted", counts, n/freshEvery, repeatEvicted, repeatBlock)
	}
}

// TestCellsAcceptedAndFreshMissesCaches sends one fresh request for
// every cell the stream can draw and checks each is a 200 and misses the
// transform and artifact caches; a repeat must then return the same
// bytes.
func TestCellsAcceptedAndFreshMissesCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("sends one request per cell")
	}
	d, err := startSlmsd(1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	g := newGenerator(3, bench.Kernels())
	for range g.cells {
		b := g.fresh()
		c := g.cells[b.cell]
		th0, tm0 := core.TransformCacheStats()
		_, cm0 := pipeline.CacheStats()
		body := g.render(b)
		st, reply, err := d.post(c.endpoint, body)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s %s %s/%s", g.kernels[c.kernel].Name, c.endpoint, c.machine, c.compiler)
		if st != http.StatusOK {
			t.Errorf("%s: status %d: %.200s", name, st, reply)
			continue
		}
		th1, tm1 := core.TransformCacheStats()
		_, cm1 := pipeline.CacheStats()
		if th1 != th0 || tm1 == tm0 {
			t.Errorf("%s: transform cache hits %d->%d misses %d->%d, want a miss only", name, th0, th1, tm0, tm1)
		}
		if (c.endpoint == epSchedule || c.endpoint == epProfile) && cm1 == cm0 {
			t.Errorf("%s: no artifact-cache miss", name)
		}
		st2, reply2, err := d.post(c.endpoint, body)
		if err != nil || st2 != http.StatusOK || string(reply2) != string(reply) {
			t.Errorf("%s: repeat differs from the first reply (status %d, err %v)", name, st2, err)
		}
	}
}

// TestServeTracedPhase drives the closed loop from every client with
// tracing on, so the race detector sees the generator, the reply checks
// and the tracer shared between the clients and the slice coordinator.
func TestServeTracedPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("warms slmsd up with a full LRU cycle of fresh requests")
	}
	inst, err := setupServe(5)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	tr := newTracer()
	p, err := inst.measure(2500*time.Millisecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.half[0].lat) == 0 || len(p.half[1].lat) == 0 {
		t.Fatalf("halves ran %d and %d requests, want both", len(p.half[0].lat), len(p.half[1].lat))
	}
	if got := tr.len(); got != len(p.half[1].lat) {
		t.Errorf("%d request spans for %d traced requests", got, len(p.half[1].lat))
	}
	// Fresh requests keep their pace: one round of the cells per
	// freshRound, give or take the requests under way at each end.
	s := inst.(*serve)
	want := float64(len(s.gen.cells)) * (p.half[0].wall + p.half[1].wall).Seconds() / freshRound.Seconds()
	if got := float64(s.fresh); got < want-float64(s.clients)-1 || got > want+float64(s.clients)+1 {
		t.Errorf("%v fresh requests in the phase, want about %.1f", got, want)
	}
	if err := inst.check(p); err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Errorf("%d of %d items failed the output checks", p.failed, p.attempted)
	}
}
