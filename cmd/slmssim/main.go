// Command slmssim compiles a mini-C program with one of the simulated
// final compilers and executes it on one of the simulated machines,
// printing the performance metrics — the measurement half of the tool
// chain, usable on arbitrary programs. -compare runs the request that
// slmsd's /v1/schedule runs (pipeline.Measure).
//
// Usage:
//
//	slmssim [flags] file.c        (use - for stdin)
//
// Flags:
//
//	-machine ia64|power4|pentium|arm7   target machine (default ia64)
//	-compiler weak|strong               final compiler class (default weak)
//	-O0                                 disable compiler scheduling
//	-scheduler ims|exact                modulo scheduling for strong compiles
//	                                    (default ims)
//	-effort quick|standard|max          exact-scheduler effort (under ims, also
//	                                    proves the optimality gap)
//	-slms                               apply SLMS before compiling
//	-compare                            run with and without SLMS and report the speedup
//	-verify                             verify every SLMS transformation before compiling
//	-dump                               print the lowered virtual ISA
//	-profile FILE                       write a cycle-attribution profile
//	                                    (pprof protobuf; see cmd/slmsprof)
//	-trace FILE                         write a pipeline trace at exit
//	-trace-format chrome|jsonl          trace file format (default chrome)
//	-metrics FILE                       write a metrics dump at exit ("-" = stdout)
//	-request-id ID                      stamp spans and decision records with this
//	                                    request ID (bare ID or W3C traceparent)
//	-q                                  suppress status output
package main

import (
	"context"
	"flag"
	"fmt"
	"slices"

	"slms/internal/analysis"
	"slms/internal/interp"
	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/prof"
	"slms/internal/source"
)

func main() {
	var r pipeline.Request
	r.BindFlags(flag.CommandLine, "machine", "compiler", "O0", "scheduler", "effort")
	slms := flag.Bool("slms", false, "apply SLMS before compiling")
	compare := flag.Bool("compare", false, "measure base vs SLMS and report the speedup")
	dump := flag.Bool("dump", false, "print the lowered virtual ISA")
	verify := flag.Bool("verify", false, "verify every SLMS transformation before compiling")
	profPath := flag.String("profile", "", "write a cycle-attribution profile (pprof protobuf) here")
	tele := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	tele.Activate()
	defer tele.MustFinish()
	modes := pipeline.Modes{Profile: *profPath != "", Verify: *verify}

	if flag.NArg() != 1 {
		obs.Usagef("usage: slmssim [flags] file.c  (use - for stdin)")
	}
	// Flag-value mistakes are usage errors (exit 2), distinct from
	// failed work (exit 1); check them before doing any work.
	if err := r.Validate(); err != nil {
		obs.Usagef("%v", err)
	}
	d, cc, _ := r.Target() // Validate resolved it
	if err := r.ReadSource(flag.Arg(0)); err != nil {
		fatal(err)
	}
	label := flag.Arg(0)
	if label == "-" {
		label = "stdin"
	}
	obs.Logf("machine: %s; compiler: %s", d.Name, cc.Name)
	sp := obs.Root("slmssim").Attr("machine", d.Name).Attr("compiler", cc.Name)
	defer sp.End()
	ctx := obs.ContextWithSpan(context.Background(), sp)

	if *compare {
		out, err := pipeline.Measure(ctx, &r, modes)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("base: %s\n", out.Base)
		fmt.Printf("slms: %s\n", out.SLMS)
		fmt.Printf("speedup: %.3f  energy ratio: %.3f  (slms applied: %v)\n",
			out.Speedup, out.PowerRatio, out.Applied)
		if *profPath != "" {
			if err := prof.WritePprofFile(*profPath, label, out.Base.Profile, out.SLMS.Profile); err != nil {
				fatal(err)
			}
		}
		return
	}

	var prog *source.Program
	var err error
	if *slms {
		prog, err = transformed(ctx, &r, *verify)
	} else {
		prog, err = source.Parse(r.Source)
	}
	if err != nil {
		fatal(err)
	}
	m, art, err := pipeline.RunCtx(ctx, prog, d, cc, interp.NewEnv(), modes)
	if err != nil {
		fatal(err)
	}
	if *dump {
		fmt.Print(art.Func.Dump())
	}
	fmt.Println(m)
	if art.Alloc.SpilledRegs > 0 {
		fmt.Printf("register allocation: %d values spilled (%d reloads, %d stores); pressure int=%d fp=%d\n",
			art.Alloc.SpilledRegs, m.SpillLoads, m.SpillStores,
			art.Alloc.MaxLiveInt, art.Alloc.MaxLiveFloat)
	}
	bodies := make([]int, 0, len(art.IMSResults))
	for id := range art.IMSResults {
		bodies = append(bodies, id)
	}
	slices.Sort(bodies)
	for _, id := range bodies {
		res := art.IMSResults[id]
		if res.OK {
			fmt.Printf("loop body b%d: modulo scheduled II=%d SL=%d stages=%d (ResMII=%d RecMII=%d)\n",
				id, res.II, res.SL, res.Stages, res.ResMII, res.RecMII)
		} else {
			fmt.Printf("loop body b%d: modulo scheduling rejected: %s\n", id, res.Reason)
		}
	}
	if *profPath != "" {
		if err := prof.WritePprofFile(*profPath, label, m.Profile); err != nil {
			fatal(err)
		}
	}
}

// transformed applies SLMS to the request's program, first verifying
// every application under -verify.
func transformed(ctx context.Context, r *pipeline.Request, verify bool) (*source.Program, error) {
	prog, out, results, err := pipeline.Transform(ctx, r)
	if err != nil {
		return nil, err
	}
	if verify {
		if err := analysis.VerifyTransformed(prog, out, results, r.CoreOptions()); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
	}
	applied := 0
	for _, res := range results {
		if res.Applied {
			applied++
		}
	}
	obs.Logf("transformed %d of %d loops", applied, len(results))
	return out, nil
}

func fatal(err error) {
	obs.Fatalf("%v", err)
}
