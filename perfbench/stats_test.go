package main

import (
	"math"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 36, 80, 1000, 49999} {
		xs := make([]float64, n)
		for i := range xs {
			xs[(i*7919)%n] = float64(i) // every value once, out of order
		}
		v, pct := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %v, want %d", n, beyond, v, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); math.Abs(pct-want) > 1e-9 {
			t.Errorf("n=%d: tail named p%v, want p%v", n, pct, want)
		}
	}
	// Below eleven samples no percentile has ten beyond it: the maximum.
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the maximum at p100", v, pct)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
}

// burn spins on the CPU for about d of wall time.
func burn(d time.Duration) {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	sink = x
}

var sink float64

func TestCPUAccounting(t *testing.T) {
	c0 := cpuTime()
	burn(200 * time.Millisecond)
	if got := cpuTime() - c0; got < 100*time.Millisecond || got > 2*time.Second {
		t.Fatalf("a 200ms busy loop cost %v of CPU", got)
	}
	// runOps charges each half the CPU its ops burned, and no other.
	p, err := runOps(50*time.Millisecond, true, 2, func(i int, traced bool) (float64, error) {
		if traced {
			burn(40 * time.Millisecond)
		} else {
			time.Sleep(40 * time.Millisecond)
		}
		return 40, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	u, tr := p.half[0], p.half[1]
	if len(u.lat) == 0 || len(tr.lat) == 0 || len(u.lat)%2 != 0 || len(tr.lat)%2 != 0 {
		t.Fatalf("halves ran %d and %d ops, want whole groups of 2 in each", len(u.lat), len(tr.lat))
	}
	if perOp := ms(tr.cpu) / float64(len(tr.lat)); perOp < 20 || perOp > 200 {
		t.Errorf("traced half: %.1f ms CPU per busy op, want about 40", perOp)
	}
	if perOp := ms(u.cpu) / float64(len(u.lat)); perOp > 10 {
		t.Errorf("untraced half: %.1f ms CPU per sleeping op, want about 0", perOp)
	}
	if p.rt.ops != len(u.lat)+len(tr.lat) {
		t.Errorf("runtime accounting saw %d ops, halves %d", p.rt.ops, len(u.lat)+len(tr.lat))
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50},  // overlaps its sibling
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
	}}
	tr.selfTimes()
	if got := tr.spans[0].Self; got != 100-40-10 {
		t.Errorf("root self time %v, want 50", got)
	}
	if got := tr.spans[1].Self; got != 30 {
		t.Errorf("leaf self time %v, want its duration 30", got)
	}
}
