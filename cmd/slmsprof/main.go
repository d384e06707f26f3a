// Command slmsprof is the cycle-attribution profiler: it compiles a
// mini-C program, runs it base and SLMS-transformed on a simulated
// machine, and reports where every cycle went — per source line, per
// cause (issue, hazard-stall, l1-miss, pipeline-fill,
// prologue-epilogue, branch) — plus per-loop schedule-quality metrics
// (II vs MII, issue-slot utilization, register pressure, fill/drain
// overhead) joined with the SLMS2xx scheduling decision records. It
// runs the request that slmsd's /v1/profile runs (pipeline.Measure
// under cycle attribution).
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
//	-scheduler ims|exact                modulo scheduling for strong compiles
//	                                    (default ims)
//	-effort quick|standard|max          exact-scheduler effort (under ims, also
//	                                    proves the optimality gap)
//	-format text|json|pprof             output format (default text)
//	-top N                              lines per hot-line table (default 20)
//	-o FILE                             output file (default stdout)
//	-base-only                          profile only the untransformed leg
//	-trace FILE                         write a pipeline trace at exit
//	-metrics FILE                       write a metrics dump at exit ("-" = stdout)
//	-request-id ID                      stamp spans and decision records with this
//	                                    request ID (bare ID or W3C traceparent)
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
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"

	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/prof"
)

func main() {
	var r pipeline.Request
	r.BindFlags(flag.CommandLine, "machine", "compiler", "O0", "scheduler", "effort")
	format := flag.String("format", "text", "text, json or pprof")
	top := flag.Int("top", 20, "lines per hot-line table (text format)")
	outPath := flag.String("o", "", "output file (default stdout)")
	baseOnly := flag.Bool("base-only", false, "profile only the untransformed leg")
	tele := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	tele.Activate()
	defer tele.MustFinish()

	if flag.NArg() != 1 {
		obs.Usagef("usage: slmsprof [flags] file.c  (use - for stdin)")
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
	if err := r.Validate(); err != nil {
		obs.Usagef("%v", err)
	}
	d, cc, _ := r.Target() // Validate resolved it
	if err := r.ReadSource(flag.Arg(0)); err != nil {
		obs.Fatalf("%v", err)
	}
	label := filepath.Base(flag.Arg(0))
	if flag.Arg(0) == "-" {
		label = "stdin"
	}

	prof.SetEnabled(true)
	sp := obs.Root("slmsprof").Attr("machine", d.Name).Attr("compiler", cc.Name)
	out, err := pipeline.Measure(obs.ContextWithSpan(context.Background(), sp), &r)
	sp.End()
	if err != nil {
		obs.Fatalf("%v", err)
	}

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
