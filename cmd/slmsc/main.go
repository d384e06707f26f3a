// Command slmsc is the source-level compiler CLI: it parses a mini-C
// program, applies source-level modulo scheduling (and optionally other
// loop transformations) to its innermost loops, and prints the
// transformed source.
//
// Usage:
//
//	slmsc [flags] file.c      # transform a file
//	slmsc [flags] -           # read from stdin
//
// Flags:
//
//	-paper            print par groups in the paper's `a; || b;` style
//	-nofilter         disable the §4 bad-case filter
//	-speculate        schedule across unproven dependences
//	-expand=mve|array choose MVE or scalar expansion (§3.3 / §3.4)
//	-noguard          omit the short-trip guard + fallback loop
//	-slc              run the full SLC driver (adds fusion, interchange,
//	                  downward-loop mirroring and reduction splitting)
//	-verify           verify every transformation before printing: static
//	                  dependence-preservation proof with a differential
//	                  interpreter fallback (see cmd/slmslint for reports)
//	-verbose          print the per-loop transformation log to stderr
//	-profile FILE     compile and simulate the transformed program on the
//	                  reference machine (ia64-like, weak -O3) and write
//	                  its cycle-attribution profile as a pprof protobuf
//	                  (see cmd/slmsprof for machine/compiler sweeps)
//	-trace FILE       write a pipeline trace at exit (-trace-format
//	                  chrome loads in chrome://tracing; jsonl is one
//	                  JSON object per span/decision)
//	-metrics FILE     write a metrics dump at exit ("-" = stdout)
//	-request-id ID    stamp spans and decision records with this request
//	                  ID (a bare ID or a W3C traceparent header value)
//	-q                suppress status output
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
	"slms/internal/slc"
	"slms/internal/source"
)

func main() {
	paper := flag.Bool("paper", false, "print par groups in paper style (a; || b;)")
	noFilter := flag.Bool("nofilter", false, "disable the bad-case filter")
	speculate := flag.Bool("speculate", false, "schedule across unproven dependences")
	expand := flag.String("expand", "mve", "variant expansion: mve or array")
	noGuard := flag.Bool("noguard", false, "omit the short-trip guard")
	verbose := flag.Bool("verbose", false, "print the transformation log")
	useSLC := flag.Bool("slc", false, "run the full source-level-compiler driver (SLMS + fusion/interchange/mirroring/reduction-splitting)")
	verify := flag.Bool("verify", false, "verify every transformation before printing (static proof, differential fallback)")
	profPath := flag.String("profile", "", "simulate the transformed program on the reference machine and write its cycle profile (pprof) here")
	schedName := flag.String("scheduler", "", "profile under the strong final compiler with this modulo scheduling: ims (the heuristic alone) or exact (the heuristic's schedule, exact refutation below its II, and a lower exact schedule kept)")
	effort := flag.String("effort", "", "exact-scheduler effort for -scheduler profiles: quick, standard or max")
	tele := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	tele.Activate()
	defer tele.MustFinish()
	if *profPath != "" {
		prof.SetEnabled(true)
	}

	if flag.NArg() != 1 {
		obs.Usagef("usage: slmsc [flags] file.c  (use - for stdin)")
	}
	switch *expand {
	case "mve", "array":
	default:
		obs.Usagef("unknown -expand mode %q (want mve or array)", *expand)
	}
	if _, err := ims.EffortConfig(*schedName, *effort); err != nil {
		obs.Usagef("%v", err)
	}
	var text []byte
	var err error
	if flag.Arg(0) == "-" {
		text, err = io.ReadAll(os.Stdin)
	} else {
		text, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		obs.Fatalf("%v", err)
	}

	prog, err := source.Parse(string(text))
	if err != nil {
		obs.Fatalf("%v", err)
	}
	sp := obs.Root("slmsc").Attr("file", flag.Arg(0))
	defer sp.End()

	opts := core.DefaultOptions()
	opts.Filter = !*noFilter
	opts.Speculate = *speculate
	opts.NoGuard = *noGuard
	if *expand == "array" {
		opts.Expansion = core.ExpandScalar
	}

	if *useSLC {
		slcOpts := slc.DefaultOptions()
		slcOpts.SLMS = opts
		res, err := slc.Optimize(prog, slcOpts)
		if err != nil {
			obs.Fatalf("%v", err)
		}
		if *verbose {
			for _, a := range res.Actions {
				fmt.Fprintln(os.Stderr, a)
			}
		}
		if *verify {
			// The SLC driver composes several transforms; gate it with the
			// assumption-free differential oracle.
			if diffs, derr := analysis.Differential(prog, res.Program, analysis.DiffOptions{}); derr != nil {
				obs.Fatalf("verify: %v", derr)
			} else if len(diffs) > 0 {
				obs.Fatalf("verify: original and optimized programs diverge: %v", diffs)
			}
		}
		if *paper {
			fmt.Print(source.PrintPaper(res.Program))
		} else {
			fmt.Print(source.Print(res.Program))
		}
		if *profPath != "" {
			if err := profileTransformed(*profPath, flag.Arg(0), res.Program, *schedName, *effort); err != nil {
				obs.Fatalf("%v", err)
			}
		}
		return
	}

	out, results, err := core.TransformProgramSpan(sp, prog, opts)
	if err != nil {
		obs.Fatalf("%v", err)
	}
	if *verify {
		if err := analysis.VerifyTransformed(prog, out, results, opts); err != nil {
			obs.Fatalf("verify: %v", err)
		}
	}
	if *verbose {
		for i, r := range results {
			fmt.Fprintf(os.Stderr, "loop %d: applied=%v", i+1, r.Applied)
			if r.Applied {
				fmt.Fprintf(os.Stderr, " II=%d MIs=%d stages=%d unroll=%d mode=%s",
					r.II, r.MIs, r.Stages, r.Unroll, r.Mode)
			} else {
				fmt.Fprintf(os.Stderr, " (%s)", r.Reason)
			}
			fmt.Fprintln(os.Stderr)
			for _, l := range r.Log {
				fmt.Fprintf(os.Stderr, "  %s\n", l)
			}
		}
	}
	if *paper {
		fmt.Print(source.PrintPaper(out))
	} else {
		fmt.Print(source.Print(out))
	}
	if *profPath != "" {
		if err := profileTransformed(*profPath, flag.Arg(0), out, *schedName, *effort); err != nil {
			obs.Fatalf("%v", err)
		}
	}
}

// profileTransformed compiles and simulates the transformed program on
// the reference machine (ia64-like VLIW, weak -O3 — the paper's primary
// target) and writes the run's cycle-attribution profile. A -scheduler
// or -effort selection switches the profile to the strong final
// compiler, the only class that runs machine-level modulo scheduling,
// with that backend. Cross-machine or base-vs-slms profiling lives in
// cmd/slmsprof.
func profileTransformed(path, label string, p *source.Program, scheduler, effort string) error {
	if label == "-" {
		label = "stdin"
	}
	cc := pipeline.WeakO3
	if scheduler != "" || effort != "" {
		cc = pipeline.StrongO3
		cc.Scheduler, cc.Effort = scheduler, effort
	}
	m, _, err := pipeline.Run(p, machine.IA64Like(), cc, interp.NewEnv())
	if err != nil {
		return fmt.Errorf("-profile: %w", err)
	}
	if m.Profile == nil {
		return fmt.Errorf("-profile: simulation recorded no profile")
	}
	m.Profile.Label = label
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return prof.WritePprof(f, m.Profile)
}
