package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// phase is the outcome of one timed phase: its untraced and traced
// halves (the traced half stays empty in an untraced run), the counts of
// verified items, the deterministic quality metrics and, in a traced
// run, per-layer values that do not come from spans.
type phase struct {
	half [2]half // [0] untraced, [1] traced

	// attempted counts every verified item: timed ops plus the checks a
	// workload makes outside them; failed counts the ones that did not
	// verify (errors, refusals and wrong output alike).
	attempted, failed int

	genCycles  float64
	cyclesNote string
	// decided and loops give decided_share.
	decided, loops int
	decidedNote    string

	// rt is the Go runtime's accounting over the whole timed phase.
	rt runtimeStats
	// rssMB is peak_rss_mb and rssNote says where it was read: at exit,
	// unless the workload read it at a fixed point of its timed phase.
	rssMB   float64
	rssNote string
	// layer holds per-layer values computed outside spans, layerN the
	// sample count behind each one that has one.
	layer  map[string]float64
	layerN map[string]int
	// notes are lines the result prints before its metrics.
	notes []string
}

// half is one half of a timed phase.
type half struct {
	lat []float64 // latency of every op, ms
	// perItem, when set, holds one latency per distinct op a run repeats
	// (a census loop, at its median over the passes); the median is
	// taken over it instead of lat.
	perItem []float64
	wall    time.Duration
	cpu     time.Duration
}

// p50 is the median latency and its sample.
func (h half) p50() (float64, string) {
	if h.perItem != nil {
		return median(h.perItem), fmt.Sprintf("n=%d loops, each the median of its %d passes", len(h.perItem), len(h.lat)/len(h.perItem))
	}
	return median(h.lat), fmt.Sprintf("n=%d", len(h.lat))
}

func newPhase() *phase { return &phase{layer: map[string]float64{}, layerN: map[string]int{}} }

// runOps runs groups of ops back to back until at least d has passed,
// always finishing the group under way, so every run measures whole
// groups (a figure pass, a census pass) and the mix of ops does not
// depend on where the clock stops. When tracing, groups alternate
// between the untraced and the traced half, untraced first, and the
// phase runs until each half has a group. op returns the op's latency
// in ms; work it does outside that latency (resets, output checks)
// still counts toward the half's wall and CPU time.
func runOps(d time.Duration, tracing bool, group int, op func(i int, traced bool) (float64, error)) (*phase, error) {
	p := newPhase()
	rt0 := readRuntime()
	start := time.Now()
	i := 0
	for g := 0; ; g++ {
		traced := tracing && g%2 == 1
		h := &p.half[0]
		if traced {
			h = &p.half[1]
		}
		w0, c0 := time.Now(), cpuTime()
		for j := 0; j < group; j++ {
			ms, err := op(i, traced)
			if err != nil {
				return nil, err
			}
			h.lat = append(h.lat, ms)
			i++
		}
		h.wall += time.Since(w0)
		h.cpu += cpuTime() - c0
		if time.Since(start) >= d && (!tracing || g >= 1) {
			break
		}
	}
	p.rt = readRuntime().sub(rt0)
	p.rt.ops = i
	return p, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeStats is a reading of the Go runtime's own accounting.
type runtimeStats struct {
	gcCPU      float64 // seconds of CPU spent in the garbage collector
	procCPU    float64 // seconds of process CPU (rusage)
	allocBytes float64 // cumulative heap allocation
	liveBytes  float64 // heap marked live by the last GC
	ops        int
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeStats{
		gcCPU:      num(s[0].Value),
		procCPU:    cpuTime().Seconds(),
		allocBytes: num(s[1].Value),
		liveBytes:  num(s[2].Value),
	}
}

// sub is the change from an earlier reading; the live heap stays the
// later reading's.
func (r runtimeStats) sub(old runtimeStats) runtimeStats {
	return runtimeStats{
		gcCPU:      r.gcCPU - old.gcCPU,
		procCPU:    r.procCPU - old.procCPU,
		allocBytes: r.allocBytes - old.allocBytes,
		liveBytes:  r.liveBytes,
	}
}

// percentile is the q-th percentile (0..100) of xs, interpolating
// linearly between order statistics.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// share is n/of, or 0 when of is 0.
func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail is the highest percentile with at least tailBeyond samples
// beyond it: the (tailBeyond+1)-th largest sample, at percentile
// 100·(n−tailBeyond)/n. With too few samples it is the maximum.
func tail(xs []float64) (v, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd derives the timing metrics of one half.
func (h half) endToEnd() (opsPerS, p50, tailV, tailPct, cpuPerOp float64) {
	n := float64(len(h.lat))
	p50, _ = h.p50()
	tailV, tailPct = tail(h.lat)
	return n / h.wall.Seconds(), p50, tailV, tailPct, ms(h.cpu) / n
}

// endToEndMetrics reports the untraced half and the run's quality
// metrics, every one with its sample count or definition.
func endToEndMetrics(rep *report, p *phase, setups []float64) {
	h := p.half[0]
	n := len(h.lat)
	opsPerS, p50, tailV, tailPct, cpuPerOp := h.endToEnd()
	parts := make([]string, len(setups))
	for i, s := range setups {
		parts[i] = fmt.Sprintf("%.4f", s)
	}
	rep.metric("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups: %s", len(setups), strings.Join(parts, " ")))
	rep.metric("ops_per_s", opsPerS, "ops/s", fmt.Sprintf("n=%d ops in %.3f s", n, h.wall.Seconds()))
	_, p50N := h.p50()
	rep.metric("op_p50_ms", p50, "ms", "p50, "+p50N)
	rep.metric("op_tail_ms", tailV, "ms", fmt.Sprintf("p%.4g, n=%d, %d beyond", tailPct, n, tailBeyond))
	rep.metric("cpu_ms_per_op", cpuPerOp, "ms", fmt.Sprintf("user+sys over n=%d ops", n))
	rep.metric("peak_rss_mb", p.rssMB, "MB", p.rssNote)
	rep.metric("ok_share", float64(p.attempted-p.failed)/float64(p.attempted), "share",
		fmt.Sprintf("%d of %d verified", p.attempted-p.failed, p.attempted))
	rep.metric("gen_cycles", p.genCycles, "cycles", p.cyclesNote)
	rep.metric("decided_share", float64(p.decided)/float64(p.loops), "share",
		fmt.Sprintf("%d of %d loops; %s", p.decided, p.loops, p.decidedNote))
}
