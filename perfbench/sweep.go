package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"slms/internal/analysis"
	"slms/internal/backend"
	"slms/internal/core"
	"slms/internal/ims"
	"slms/internal/interp"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/sched"
	"slms/internal/sem"
	"slms/internal/server"
	"slms/internal/sim"
	"slms/internal/source"
)

// sweepProg is one program a traced run replays through the layers,
// with the targets its workload runs it on.
type sweepProg struct {
	name    string
	src     string
	setup   func(*interp.Env)
	targets []target
}

// sweepLayers replays each program through every layer's public calls
// in pipeline order, one span per call, on a single goroutine so each
// span's allocation counts are its own. Machine-independent calls run
// once per program; lowering, register allocation, list scheduling,
// heuristic IMS, compilation, simulation and profiling run per target;
// the exact prover runs once per program, on the census machine
// (ia64-like) at standard effort.
func sweepLayers(tr *tracer, p *phase, progs []sweepProg) error {
	heur, err := ims.EffortConfig("", "")
	if err != nil {
		return err
	}
	std, err := ims.EffortConfig("", "standard")
	if err != nil {
		return err
	}
	ia64 := machine.IA64Like()
	var applied, proofs, cuts, nodes, proveMs, cycles, simSec float64
	for i, sp := range progs {
		fail := func(step string, err error) error { return fmt.Errorf("%s: %s: %w", sp.name, step, err) }
		root := tr.begin("sweep", sp.name, -1, i)
		var prog, tp *source.Program
		var results []*core.Result
		if tr.call("source.parse", root, i, func() { prog, err = source.Parse(sp.src) }); err != nil {
			return fail("parse", err)
		}
		tr.call("source.fingerprint", root, i, func() { source.Fingerprint(prog) })
		if tr.call("sem.check", root, i, func() { _, err = sem.Check(prog) }); err != nil {
			return fail("sem", err)
		}
		if tr.call("core.transform", root, i, func() { tp, results, err = core.TransformProgram(prog, core.DefaultOptions()) }); err != nil {
			return fail("transform", err)
		}
		for _, r := range results {
			if r.Applied {
				applied++
			}
		}
		if tr.call("analysis.lint", root, i, func() {
			_, err = analysis.LintProgram(sp.name, prog, analysis.LintOptions{Core: core.DefaultOptions()})
		}); err != nil {
			return fail("lint", err)
		}
		ref := seededEnv(sp.setup)
		if tr.call("interp.run", root, i, func() { err = interp.Run(prog, ref) }); err != nil {
			return fail("interpreter", err)
		}

		f, err := lowerSpan(tr, root, i, prog)
		if err != nil {
			return fail("lower", err)
		}
		for _, b := range loopBodies(f) {
			var res *ims.Result
			tr.call("ims.heuristic", root, i, func() { res = ims.ScheduleWith(b, ia64, true, heur) })
			body := b.Instrs
			if k := len(body); k > 0 && body[k-1].Op.IsBranch() {
				body = body[:k-1]
			}
			n := len(body)
			if n == 0 || res.RecMII < 0 {
				continue // ScheduleWith ran no prover on these either
			}
			g := ims.BuildGraph(body, ia64, true)
			var o *sched.Optimality
			proveMs += tr.call("exact.prove", root, i, func() { o = sched.Prove(g, ia64, std.Prove, res.II, max(res.ResMII, res.RecMII, 1)+n+8) }) / 1e3
			proofs++
			nodes += float64(o.Visited)
			if o.Verdict == sched.VerdictBudget {
				cuts++
			}
		}

		for _, t := range sp.targets {
			f, err := lowerSpan(tr, root, i, prog)
			if err != nil {
				return fail("lower", err)
			}
			tr.call("backend.regalloc", root, i, func() { backend.Allocate(f, t.d) })
			tr.call("backend.listsched", root, i, func() {
				for _, b := range f.Blocks {
					backend.ListSchedule(b, t.d, t.cc.Tags, t.cc.Window)
				}
			})
			if t.cc.IMS && t.d.Policy == machine.Static {
				for _, b := range loopBodies(f) {
					tr.call("ims.heuristic", root, i, func() { ims.ScheduleWith(b, t.d, t.cc.Tags, heur) })
				}
			}
			var art *pipeline.Artifact
			if tr.call("pipeline.compile", root, i, func() { art, err = pipeline.CompileFor(tp, t.d, t.cc) }); err != nil {
				return fail("compile", err)
			}
			var pd *sim.Predecoded
			tr.call("sim.predecode", root, i, func() { pd = sim.Predecode(art.Func, t.d, art.Plan, false) })
			env := seededEnv(sp.setup)
			var m *sim.Metrics
			us := tr.call("sim.run", root, i, func() { m, err = pd.Run(env, 0) })
			if err != nil {
				return fail("simulate", err)
			}
			simSec += us / 1e6
			cycles += float64(m.Cycles)
			delete(env.Arrays, backend.SpillArray)
			var diffs []interp.Diff
			tr.call("interp.compare", root, i, func() { diffs = interp.Compare(ref, env, interp.CompareOpts{FloatTol: 1e-6}) })
			if len(diffs) > 0 {
				return fail("compare", fmt.Errorf("simulator disagrees with the interpreter on %s: %v", t.machine, diffs))
			}
			pdp := sim.Predecode(art.Func, t.d, art.Plan, true)
			envp := seededEnv(sp.setup)
			if tr.call("prof.run", root, i, func() { _, err = pdp.Run(envp, 0) }); err != nil {
				return fail("profile", err)
			}
		}
		tr.end(root)
	}
	p.layer["core.loops_applied"] = applied
	p.layer["exact.nodes"] = nodes / proofs
	p.layerN["exact.nodes"] = int(proofs)
	p.layer["exact.nodes_per_ms"] = nodes / proveMs
	p.layer["exact.budget_cut_share"] = cuts / proofs
	p.layerN["exact.budget_cut_share"] = int(proofs)
	p.layer["sim.cycles_per_s"] = cycles / simSec
	kb, err := retainedPerFresh(progs)
	p.layer["pipeline.retained_kb_per_fresh"] = kb
	p.layerN["pipeline.retained_kb_per_fresh"] = len(progs)
	return err
}

// lowerSpan is the machine-independent front half of a compile
// (lowering plus local CSE) as one span.
func lowerSpan(tr *tracer, parent, op int, prog *source.Program) (*ir.Func, error) {
	var f *ir.Func
	var err error
	tr.call("backend.lower", parent, op, func() {
		if f, err = backend.Compile(prog); err == nil {
			backend.LocalCSE(f)
		}
	})
	return f, err
}

// loopBodies are the counted innermost loop bodies, the blocks modulo
// scheduling takes.
func loopBodies(f *ir.Func) []*ir.Block {
	var out []*ir.Block
	for _, b := range f.Blocks {
		if b.IsLoopBody && b.Counted {
			out = append(out, b)
		}
	}
	return out
}

// freshTag numbers the unique declarations that make a program text
// new to every cache.
var freshTag int

func uniqueSource(prefix, src string) string {
	freshTag++
	return fmt.Sprintf("int %s_%d = 1;\n%s", prefix, freshTag, src)
}

// retainedPerFresh is the live heap, in KB, that the process-wide
// caches keep per program taken once through /v1/schedule's pipeline
// path (uncached parse, cached transform, cached compiles, simulation).
func retainedPerFresh(progs []sweepProg) (float64, error) {
	var m0, m1 runtime.MemStats
	// The second collection frees what sync.Pools hand to their victim
	// caches in the first; without it the pools' contents would leave
	// the heap during the loop and read as negative retention.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ia64 := machine.IA64Like()
	for _, sp := range progs {
		prog, err := source.Parse(uniqueSource("retained", sp.src))
		if err != nil {
			return 0, err
		}
		if _, _, err := pipeline.RunExperiments(prog, ia64, pipeline.StrongO3, []core.Options{core.DefaultOptions()}, sp.setup); err != nil {
			return 0, fmt.Errorf("%s: %w", sp.name, err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / 1024 / float64(len(progs)), nil
}

// serverProbe measures the serving layer for workloads that do not go
// through it: an in-process slmsd receives each program (as new text)
// on /v1/schedule, then the same request again (a response-cache hit),
// then again after enough distinct small requests to evict it from the
// LRU (so only the pipeline caches below hit). Each program also goes
// to /v1/explain before and after the evicting requests, which gives
// analysis.recurrence_changed_share (see explain.go).
func serverProbe(p *phase, progs []sweepProg) error {
	d, err := startSlmsd(1)
	if err != nil {
		return err
	}
	defer d.stop()
	var bodies, explains [][]byte
	for _, sp := range progs {
		b, err := json.Marshal(server.Request{Source: uniqueSource("probe", sp.src), Machine: "ia64", Compiler: "strong"})
		if err != nil {
			return err
		}
		explains = append(explains, b)
		if !simRejects[sp.name] {
			bodies = append(bodies, b)
		}
	}
	send := func(ep string, b []byte) (float64, error) {
		t0 := time.Now()
		st, reply, err := d.post(ep, b)
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", ep, st, reply)
		}
		return ms(time.Since(t0)), err
	}
	var lat [numClasses][]float64
	for _, c := range []int{classFresh, classRecent} {
		for _, b := range bodies {
			v, err := send(epSchedule, b)
			if err != nil {
				return err
			}
			lat[c] = append(lat[c], v)
		}
	}
	first := make([][]byte, len(explains))
	for i, b := range explains {
		st, reply, err := d.post(epExplain, b)
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", epExplain, st, reply)
		}
		if err != nil {
			return err
		}
		first[i] = reply
	}
	for j := 0; j < lruEntries+64; j++ {
		b, err := json.Marshal(server.Request{Source: uniqueSource("evict", "float A[4];\n")})
		if err != nil {
			return err
		}
		if _, err := send(epCompile, b); err != nil {
			return err
		}
	}
	for _, b := range bodies {
		v, err := send(epSchedule, b)
		if err != nil {
			return err
		}
		lat[classEvicted] = append(lat[classEvicted], v)
	}
	changed := 0
	for i, b := range explains {
		st, reply, err := d.post(epExplain, b)
		switch {
		case err != nil:
			return err
		case st != http.StatusOK || maskRecurrences(reply) != maskRecurrences(first[i]):
			return fmt.Errorf("%s: evicted repeat differs from its first reply beyond the recurrence named", epExplain)
		case !bytes.Equal(reply, first[i]):
			changed++
		}
	}
	p.layer["analysis.recurrence_changed_share"] = share(changed, len(explains))
	p.layerN["analysis.recurrence_changed_share"] = len(explains)
	st := d.srv.Stats()
	p.layer["server.hit_us"] = median(lat[classRecent]) * 1e3
	p.layer["server.fresh_ms"] = median(lat[classFresh])
	p.layer["server.evicted_ms"] = median(lat[classEvicted])
	for _, n := range []string{"server.hit_us", "server.fresh_ms", "server.evicted_ms"} {
		p.layerN[n] = len(bodies)
	}
	p.layer["server.cache_hit_rate"] = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	p.layer["server.queue_max"] = float64(st.MaxQueueDepth)
	p.layer["server.rejected"] = float64(st.QueueRejected)
	return nil
}

// figurePass regenerates the figures once, cold, with a span per
// figure, for workloads whose timed phase does not.
func figurePass(tr *tracer) error {
	_, _, err := (&figures{}).pass(tr, -1, identity(len(figureGens)))
	return err
}

// cacheCounts holds hits and misses of the parse, transform and
// artifact caches.
type cacheCounts [3][2]int64

func readCaches() cacheCounts {
	var c cacheCounts
	c[0][0], c[0][1] = source.ParseCacheStats()
	c[1][0], c[1][1] = core.TransformCacheStats()
	c[2][0], c[2][1] = pipeline.CacheStats()
	return c
}

func (c cacheCounts) add(o cacheCounts) cacheCounts {
	for i := range c {
		c[i][0] += o[i][0]
		c[i][1] += o[i][1]
	}
	return c
}

func (c cacheCounts) sub(o cacheCounts) cacheCounts {
	for i := range c {
		c[i][0] -= o[i][0]
		c[i][1] -= o[i][1]
	}
	return c
}

// rates sets each cache's hit rate over the counted lookups (0 when the
// workload made none).
func (c cacheCounts) rates(p *phase) {
	names := [3]string{"source.parse_cache_hit_rate", "core.transform_cache_hit_rate", "pipeline.compile_cache_hit_rate"}
	for i, n := range names {
		h, m := c[i][0], c[i][1]
		p.layer[n] = 0
		if h+m > 0 {
			p.layer[n] = float64(h) / float64(h+m)
		}
		p.layerN[n] = int(h + m)
	}
}
