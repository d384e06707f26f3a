// Command slmssim compiles a mini-C program with one of the simulated
// final compilers and executes it on one of the simulated machines,
// printing the performance metrics — the measurement half of the tool
// chain, usable on arbitrary programs.
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
	"flag"
	"fmt"
	"io"
	"os"

	"slms/internal/analysis"
	"slms/internal/core"
	"slms/internal/ims"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/prof"
	"slms/internal/sim"
	"slms/internal/source"
)

func main() {
	machineName := flag.String("machine", "ia64", "ia64, power4, pentium or arm7")
	compiler := flag.String("compiler", "weak", "weak (GCC-like) or strong (ICC/XLC-like)")
	o0 := flag.Bool("O0", false, "disable compiler scheduling")
	scheduler := flag.String("scheduler", "", "modulo scheduling for strong compiles: ims (the heuristic alone, default) or exact (the heuristic's schedule, exact refutation below its II, and a lower exact schedule kept)")
	effort := flag.String("effort", "", "exact-scheduler effort: quick, standard or max (under ims, also proves the optimality gap)")
	slms := flag.Bool("slms", false, "apply SLMS before compiling")
	compare := flag.Bool("compare", false, "measure base vs SLMS and report the speedup")
	dump := flag.Bool("dump", false, "print the lowered virtual ISA")
	verify := flag.Bool("verify", false, "verify every SLMS transformation before compiling")
	profPath := flag.String("profile", "", "write a cycle-attribution profile (pprof protobuf) here")
	tele := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	tele.Activate()
	defer tele.MustFinish()
	pipeline.SetVerify(*verify)
	if *profPath != "" {
		prof.SetEnabled(true)
	}

	if flag.NArg() != 1 {
		obs.Usagef("usage: slmssim [flags] file.c  (use - for stdin)")
	}
	// Flag-value mistakes are usage errors (exit 2), distinct from
	// failed work (exit 1); check them before doing any work.
	d, err := machine.ByName(*machineName)
	if err != nil {
		obs.Usagef("%v", err)
	}
	cc, err := pipeline.CompilerByName(*compiler, *o0)
	if err != nil {
		obs.Usagef("%v", err)
	}
	if _, err := ims.EffortConfig(*scheduler, *effort); err != nil {
		obs.Usagef("%v", err)
	}
	cc.Scheduler, cc.Effort = *scheduler, *effort

	var text []byte
	if flag.Arg(0) == "-" {
		text, err = io.ReadAll(os.Stdin)
	} else {
		text, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fatal(err)
	}
	prog, err := source.Parse(string(text))
	if err != nil {
		fatal(err)
	}
	obs.Logf("machine: %s; compiler: %s", d.Name, cc.Name)
	sp := obs.Root("slmssim").Attr("machine", d.Name).Attr("compiler", cc.Name)
	defer sp.End()

	if *compare {
		outs, errs, err := pipeline.RunExperimentsSpan(sp, prog, d, cc,
			[]core.Options{core.DefaultOptions()}, nil)
		if err == nil {
			err = errs[0]
		}
		if err != nil {
			fatal(err)
		}
		out := outs[0]
		fmt.Printf("base: %s\n", out.Base)
		fmt.Printf("slms: %s\n", out.SLMS)
		fmt.Printf("speedup: %.3f  energy ratio: %.3f  (slms applied: %v)\n",
			out.Speedup, out.PowerRatio, out.Applied)
		if *profPath != "" {
			ms := []*sim.Metrics{out.Base}
			if out.SLMS != nil && out.SLMS != out.Base {
				ms = append(ms, out.SLMS)
			}
			if err := writeProfile(*profPath, flag.Arg(0), ms...); err != nil {
				fatal(err)
			}
		}
		return
	}

	if *slms {
		opts := core.DefaultOptions()
		transformed, results, err := core.TransformProgramSpan(sp, prog, opts)
		if err != nil {
			fatal(err)
		}
		if *verify {
			if err := analysis.VerifyTransformed(prog, transformed, results, opts); err != nil {
				fatal(fmt.Errorf("verify: %w", err))
			}
		}
		applied := 0
		for _, r := range results {
			if r.Applied {
				applied++
			}
		}
		obs.Logf("transformed %d of %d loops", applied, len(results))
		prog = transformed
	}

	env := interp.NewEnv()
	m, art, err := pipeline.RunSpan(sp, prog, d, cc, env)
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
	for id, r := range art.IMSResults {
		if r.OK {
			fmt.Printf("loop body b%d: modulo scheduled II=%d SL=%d stages=%d (ResMII=%d RecMII=%d)\n",
				id, r.II, r.SL, r.Stages, r.ResMII, r.RecMII)
		} else {
			fmt.Printf("loop body b%d: modulo scheduling rejected: %s\n", id, r.Reason)
		}
	}
	if *profPath != "" {
		if err := writeProfile(*profPath, flag.Arg(0), m); err != nil {
			fatal(err)
		}
	}
}

// writeProfile dumps the runs' cycle-attribution profiles as a pprof
// protobuf, labeling them with the input file name.
func writeProfile(path, label string, ms ...*sim.Metrics) error {
	if label == "-" {
		label = "stdin"
	}
	var ps []*prof.Profile
	for _, m := range ms {
		if m == nil || m.Profile == nil {
			continue
		}
		if m.Profile.Label == "" {
			m.Profile.Label = label
		}
		ps = append(ps, m.Profile)
	}
	if len(ps) == 0 {
		return fmt.Errorf("-profile: simulation recorded no profile")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return prof.WritePprof(f, ps...)
}

func fatal(err error) {
	obs.Fatalf("%v", err)
}
