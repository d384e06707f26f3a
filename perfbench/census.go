package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"slms/internal/backend"
	"slms/internal/bench"
	"slms/internal/ims"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/sched"
	"slms/internal/source"
)

// optgapKnown is the known-answer file: the verdict of every census
// loop as slmsbench -optgap recorded it at standard effort (22
// proven-optimal, 3 gaps of 1, 11 budget-exhausted).
//
//go:embed optgap_known.json
var optgapKnown []byte

// knownVerdict is one recorded census verdict (the file also records
// each loop's heuristic II, which the checks do not need).
type knownVerdict struct {
	Kernel  string `json:"kernel"`
	Loop    int    `json:"loop"`
	Verdict string `json:"verdict"`
	ExactII int    `json:"exact_ii,omitempty"`
}

// provenII is the recorded minimal II, or 0 when none was proven.
func (k knownVerdict) provenII() int {
	switch k.Verdict {
	case sched.VerdictOptimal, sched.VerdictGap, sched.VerdictExactOnly:
		return k.ExactII
	}
	return 0
}

// censusLoop is one counted innermost loop body of the optgap corpus,
// lowered during set-up.
type censusLoop struct {
	block *ir.Block
	known knownVerdict
}

// census is the optgap_census workload: one op is one loop, heuristic
// IMS then the exact prover at standard effort; a group is one pass
// over all loops in a seeded order.
type census struct {
	rng   *rand.Rand
	d     *machine.Desc
	cfg   ims.Config
	loops []censusLoop
	order []int

	ops, bad, settled int
	// passII is the summed best II of the first pass.
	passII float64
}

func setupCensus(seed int64) (instance, error) {
	var known []knownVerdict
	if err := json.Unmarshal(optgapKnown, &known); err != nil {
		return nil, fmt.Errorf("known answers: %w", err)
	}
	byKey := map[string]knownVerdict{}
	for _, k := range known {
		byKey[fmt.Sprintf("%s#%d", k.Kernel, k.Loop)] = k
	}
	cfg, err := ims.EffortConfig("", "standard")
	if err != nil {
		return nil, err
	}
	c := &census{rng: rand.New(rand.NewSource(seed)), d: machine.IA64Like(), cfg: cfg}
	for _, k := range bench.OptgapCorpus() {
		prog, err := source.Parse(k.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		f, err := backend.Compile(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		backend.LocalCSE(f)
		for i, b := range loopBodies(f) {
			// Loops without a recorded verdict are the empty bodies the
			// census skips.
			if kv, ok := byKey[fmt.Sprintf("%s#%d", k.Name, i+1)]; ok {
				c.loops = append(c.loops, censusLoop{b, kv})
			}
		}
	}
	if len(c.loops) != len(known) {
		return nil, fmt.Errorf("lowered %d census loops, the known-answer file has %d", len(c.loops), len(known))
	}
	// Warm-up: one pass over every loop, untimed and unchecked. It is
	// the one-shot cost of a census (slmsbench -optgap), so setup_s
	// counts it, and the first timed pass is not the process's first.
	for _, l := range c.loops {
		ims.ScheduleWith(l.block, c.d, true, c.cfg)
	}
	return c, nil
}

// measure proves every loop once per pass. A run repeats the same 36
// loops, so its median latency is taken over the loops, each at its
// median over the run's passes: over all ops the median would sit
// exactly between two loops (36 is even), on the slowest repetition of
// one and the fastest of the other.
func (c *census) measure(d time.Duration, tr *tracer) (*phase, error) {
	n := len(c.loops)
	var byLoop [2][][]float64
	for h := range byLoop {
		byLoop[h] = make([][]float64, n)
	}
	p, err := runOps(d, tr != nil, n, func(i int, traced bool) (float64, error) {
		if i%n == 0 {
			c.order = c.rng.Perm(n)
		}
		j := c.order[i%n]
		l := c.loops[j]
		var t *tracer
		h := 0
		if traced {
			t, h = tr, 1
		}
		id := t.begin("census.loop", fmt.Sprintf("%s#%d", l.known.Kernel, l.known.Loop), -1, i)
		t0 := time.Now()
		res := ims.ScheduleWith(l.block, c.d, true, c.cfg)
		lat := ms(time.Since(t0))
		t.end(id)
		c.record(l, res, i < n)
		byLoop[h][j] = append(byLoop[h][j], lat)
		return lat, nil
	})
	if err != nil {
		return nil, err
	}
	for h, loops := range byLoop {
		if len(p.half[h].lat) == 0 {
			continue
		}
		for _, lats := range loops {
			p.half[h].perItem = append(p.half[h].perItem, median(lats))
		}
	}
	cacheCounts{}.rates(p) // the census looks up no cache
	return p, nil
}

// record checks one loop's verdict against the known answer. A loop
// fails when its proven II contradicts a recorded proven II, or when its
// heuristic II undercuts one; settling a recorded budget-exhausted loop
// is correct and counts toward decided_share.
func (c *census) record(l censusLoop, res *ims.Result, firstPass bool) {
	c.ops++
	o := res.Opt
	if o == nil {
		c.bad++
		return
	}
	proven := knownVerdict{Verdict: o.Verdict, ExactII: o.ExactII}.provenII()
	if want := l.known.provenII(); want > 0 && ((proven > 0 && proven != want) || (o.HeurII > 0 && o.HeurII < want)) {
		c.bad++
	}
	if o.Verdict != sched.VerdictBudget {
		c.settled++
	}
	if firstPass {
		best := o.HeurII
		if o.ExactII > 0 && (best == 0 || o.ExactII < best) {
			best = o.ExactII
		}
		c.passII += float64(best)
	}
}

func (c *census) check(p *phase) error {
	p.attempted, p.failed = c.ops, c.bad
	p.decided, p.loops = c.settled, c.ops
	p.genCycles = c.passII
	p.cyclesNote = "summed best II of the census loops: cycles per steady-state iteration"
	p.decidedNote = "census loops with a settled verdict"
	return nil
}

func (c *census) sweep(tr *tracer, p *phase) error {
	var progs []sweepProg
	for _, k := range bench.OptgapCorpus() {
		progs = append(progs, sweepProg{name: k.Name, src: k.Source, setup: k.Setup,
			targets: []target{mustTarget("ia64", pipeline.StrongO3)}})
	}
	if err := sweepLayers(tr, p, progs); err != nil {
		return err
	}
	if err := serverProbe(p, progs); err != nil {
		return err
	}
	return figurePass(tr)
}

func (c *census) close() {}
