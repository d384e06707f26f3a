// Command slmsprof is the cycle-attribution profiler: it compiles a
// mini-C program, runs it base and SLMS-transformed on a simulated
// machine, and reports where every cycle went — per source line, per
// cause (issue, hazard-stall, l1-miss, pipeline-fill,
// prologue-epilogue, branch) — plus per-loop schedule-quality metrics
// (II vs MII, issue-slot utilization, register pressure, fill/drain
// overhead) joined with the SLMS2xx scheduling decision records.
//
// Usage:
//
//	slmsprof [flags] file.c        (use - for stdin)
//
// Flags:
//
//	-machine ia64|power4|pentium|arm7   target machine (default ia64)
//	-compiler weak|strong               final compiler class (default weak)
//	-O0                                 disable compiler scheduling
//	-format text|json|pprof             output format (default text)
//	-top N                              lines per hot-line table (default 20)
//	-o FILE                             output file (default stdout)
//	-base-only                          profile only the untransformed leg
//	-q                                  suppress status output
//
// The pprof format is the standard gzipped profile.proto, so
//
//	slmsprof -format=pprof -o cycles.pb.gz kernel.c
//	go tool pprof -top cycles.pb.gz       # or -http=: for flamegraphs
//
// renders flamegraphs keyed by (program, source line, cause).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"slms/internal/core"
	"slms/internal/ims"
	"slms/internal/machine"
	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/prof"
	"slms/internal/source"
)

func main() {
	machineName := flag.String("machine", "ia64", "ia64, power4, pentium or arm7")
	compiler := flag.String("compiler", "weak", "weak (GCC-like) or strong (ICC/XLC-like)")
	o0 := flag.Bool("O0", false, "disable compiler scheduling")
	scheduler := flag.String("scheduler", "", "modulo scheduling for strong compiles: ims (the heuristic alone, default) or exact (the heuristic's schedule, exact refutation below its II, and a lower exact schedule kept)")
	effort := flag.String("effort", "", "exact-scheduler effort: quick, standard or max (under ims, also proves the optimality gap)")
	format := flag.String("format", "text", "text, json or pprof")
	top := flag.Int("top", 20, "lines per hot-line table (text format)")
	outPath := flag.String("o", "", "output file (default stdout)")
	baseOnly := flag.Bool("base-only", false, "profile only the untransformed leg")
	tele := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	tele.Activate()
	defer tele.MustFinish()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: slmsprof [flags] file.c  (use - for stdin)")
		os.Exit(2)
	}
	switch *format {
	case "text", "json", "pprof":
	default:
		obs.Usagef("unknown -format %q (want text, json or pprof)", *format)
	}
	if *top < 1 {
		obs.Usagef("-top must be at least 1, got %d", *top)
	}
	// Resolve flag values before doing any work: a bad machine or
	// compiler name is a usage error (exit 2), not a failed run.
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

	label := flag.Arg(0)
	var text []byte
	if label == "-" {
		label = "stdin"
		text, err = io.ReadAll(os.Stdin)
	} else {
		text, err = os.ReadFile(label)
		label = filepath.Base(label)
	}
	if err != nil {
		obs.Fatalf("%v", err)
	}
	prog, err := source.Parse(string(text))
	if err != nil {
		obs.Fatalf("%v", err)
	}

	prof.SetEnabled(true)
	sp := obs.Root("slmsprof").Attr("machine", d.Name).Attr("compiler", cc.Name)
	outs, errs, err := pipeline.RunExperimentsSpan(sp, prog, d, cc,
		[]core.Options{core.DefaultOptions()}, nil)
	sp.End()
	if err == nil {
		err = errs[0]
	}
	if err != nil {
		obs.Fatalf("%v", err)
	}
	out := outs[0]

	var ps []*prof.Profile
	collect := func(p *prof.Profile) {
		if p == nil {
			return
		}
		if p.Label == "" {
			p.Label = label
		}
		ps = append(ps, p)
	}
	collect(out.Base.Profile)
	if !*baseOnly && out.SLMS != nil && out.SLMS.Profile != out.Base.Profile {
		collect(out.SLMS.Profile)
	}
	if len(ps) == 0 {
		obs.Fatalf("simulation recorded no profile")
	}
	obs.Logf("profiled %s on %s under %s: %d leg(s), slms applied: %v",
		label, d.Name, cc.Name, len(ps), out.Applied)

	w := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			obs.Fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	if *format == "text" {
		err = prof.WriteText(w, *top, ps...)
	} else {
		err = prof.Write(w, *format, ps...)
	}
	if err != nil {
		obs.Fatalf("%v", err)
	}
}
