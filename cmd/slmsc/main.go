// Command slmsc is the source-level compiler CLI: it parses a mini-C
// program, applies source-level modulo scheduling (and optionally other
// loop transformations) to its innermost loops, and prints the
// transformed source. Without -slc it runs the request that slmsd's
// /v1/compile runs (pipeline.Transform), and prints the same source.
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
//	-scheduler NAME   profile under the strong final compiler with this
//	                  modulo scheduling: ims or exact
//	-effort LEVEL     exact-scheduler effort for -scheduler profiles:
//	                  quick, standard or max (also selects the strong
//	                  compiler)
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
	"context"
	"flag"
	"fmt"
	"os"

	"slms/internal/analysis"
	"slms/internal/interp"
	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/prof"
	"slms/internal/slc"
	"slms/internal/source"
)

func main() {
	var r pipeline.Request
	r.BindFlags(flag.CommandLine, "paper", "nofilter", "speculate", "expand", "noguard", "scheduler", "effort")
	flag.Lookup("scheduler").Usage = "profile under the strong final compiler with this modulo scheduling: ims (the heuristic alone) or exact (the heuristic's schedule, exact refutation below its II, and a lower exact schedule kept)"
	flag.Lookup("effort").Usage = "exact-scheduler effort for -scheduler profiles: quick, standard or max"
	verbose := flag.Bool("verbose", false, "print the transformation log")
	useSLC := flag.Bool("slc", false, "run the full source-level-compiler driver (SLMS + fusion/interchange/mirroring/reduction-splitting)")
	verify := flag.Bool("verify", false, "verify every transformation before printing (static proof, differential fallback)")
	profPath := flag.String("profile", "", "simulate the transformed program on the reference machine and write its cycle profile (pprof) here")
	tele := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	tele.Activate()
	defer tele.MustFinish()

	if flag.NArg() != 1 {
		obs.Usagef("usage: slmsc [flags] file.c  (use - for stdin)")
	}
	if err := r.Validate(); err != nil {
		obs.Usagef("%v", err)
	}
	if err := r.ReadSource(flag.Arg(0)); err != nil {
		obs.Fatalf("%v", err)
	}
	sp := obs.Root("slmsc").Attr("file", flag.Arg(0))
	defer sp.End()

	var out *source.Program
	if *useSLC {
		prog, err := source.Parse(r.Source)
		if err != nil {
			obs.Fatalf("%v", err)
		}
		slcOpts := slc.DefaultOptions()
		slcOpts.SLMS = r.CoreOptions()
		res, err := slc.OptimizeSpan(sp, prog, slcOpts)
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
		out = res.Program
	} else {
		prog, transformed, results, err := pipeline.Transform(obs.ContextWithSpan(context.Background(), sp), &r)
		if err != nil {
			obs.Fatalf("%v", err)
		}
		if *verify {
			if err := analysis.VerifyTransformed(prog, transformed, results, r.CoreOptions()); err != nil {
				obs.Fatalf("verify: %v", err)
			}
		}
		if *verbose {
			for i, res := range results {
				fmt.Fprintf(os.Stderr, "loop %d: applied=%v", i+1, res.Applied)
				if res.Applied {
					fmt.Fprintf(os.Stderr, " II=%d MIs=%d stages=%d unroll=%d mode=%s",
						res.II, res.MIs, res.Stages, res.Unroll, res.Mode)
				} else {
					fmt.Fprintf(os.Stderr, " (%s)", res.Reason)
				}
				fmt.Fprintln(os.Stderr)
				for _, l := range res.Log {
					fmt.Fprintf(os.Stderr, "  %s\n", l)
				}
			}
		}
		out = transformed
	}
	if r.Paper {
		fmt.Print(source.PrintPaper(out))
	} else {
		fmt.Print(source.Print(out))
	}
	if *profPath != "" {
		if err := profileTransformed(*profPath, flag.Arg(0), out, &r); err != nil {
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
func profileTransformed(path, label string, p *source.Program, r *pipeline.Request) error {
	if label == "-" {
		label = "stdin"
	}
	if r.Scheduler != "" || r.Effort != "" {
		r.Compiler = "strong"
	}
	d, cc, _ := r.Target() // validated in main
	m, _, err := pipeline.RunCtx(context.Background(), p, d, cc, interp.NewEnv(), pipeline.Modes{Profile: true})
	if err != nil {
		return fmt.Errorf("-profile: %w", err)
	}
	return prof.WritePprofFile(path, label, m.Profile)
}
