// Command slmslint lints mini-C programs through the SLMS verifier: it
// transforms every innermost loop, statically proves (or refutes) that
// each applied schedule preserves the loop's dependences, explains why
// the remaining loops were rejected, and falls back to differential
// translation validation when the static checker is inconclusive.
//
// Usage:
//
//	slmslint [flags] file.c...   # lint files
//	slmslint [flags] -           # read from stdin
//
// Exit status: 0 when every file is clean, 1 when any diagnostic is an
// error (a refuted schedule or a differential mismatch), 2 on usage or
// read/parse failures.
//
// Flags:
//
//	-json             machine-readable report (one JSON object per file)
//	-q                only warnings and errors (suppress info diagnostics)
//	-diff             run the differential harness even for proved loops
//	-seeds=N          differential input sets (default 3)
//	-nofilter         disable the §4 bad-case filter
//	-threshold=R      memory-ref ratio filter threshold (default 0.85)
//	-speculate        schedule across unproven dependences
//	-expand=mve|array variant expansion strategy
//	-noguard          omit the short-trip guard
//	-trace FILE       write a pipeline trace at exit (-trace-format
//	                  chrome or jsonl)
//	-metrics FILE     write a metrics dump at exit ("-" = stdout)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"slms/internal/analysis"
	"slms/internal/core"
	"slms/internal/ims"
	"slms/internal/machine"
	"slms/internal/obs"
	"slms/internal/source"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	quiet := flag.Bool("q", false, "only warnings and errors")
	diff := flag.Bool("diff", false, "run differential validation even for proved loops")
	seeds := flag.Int("seeds", 3, "differential input sets")
	noFilter := flag.Bool("nofilter", false, "disable the bad-case filter")
	threshold := flag.Float64("threshold", 0.85, "memory-ref ratio filter threshold")
	speculate := flag.Bool("speculate", false, "schedule across unproven dependences")
	expand := flag.String("expand", "mve", "variant expansion: mve or array")
	noGuard := flag.Bool("noguard", false, "omit the short-trip guard")
	optgap := flag.Bool("optgap", false, "audit machine-level modulo schedules: prove each heuristic II against the exact scheduler (SLMS31x diagnostics)")
	machineName := flag.String("machine", "ia64", "target machine for -optgap: ia64, power4, pentium or arm7")
	effort := flag.String("effort", "standard", "exact-prover effort for -optgap: quick, standard or max")
	tele := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	obs.SetQuiet(*quiet)
	tele.Activate()

	if flag.NArg() == 0 {
		obs.Usagef("usage: slmslint [flags] file.c...  (use - for stdin)")
	}
	opts := analysis.LintOptions{Core: core.DefaultOptions(), Diff: *diff, Seeds: *seeds}
	opts.Core.Filter = !*noFilter
	opts.Core.MemRefThreshold = *threshold
	opts.Core.Speculate = *speculate
	opts.Core.NoGuard = *noGuard
	switch *expand {
	case "mve":
	case "array":
		opts.Core.Expansion = core.ExpandScalar
	default:
		obs.Usagef("unknown -expand mode %q (want mve or array)", *expand)
	}
	if *seeds < 1 {
		obs.Usagef("-seeds must be at least 1, got %d", *seeds)
	}
	if *threshold < 0 || *threshold > 1 {
		obs.Usagef("-threshold must be in [0,1], got %v", *threshold)
	}
	optMachine, err := machine.ByName(*machineName)
	if err != nil {
		obs.Usagef("%v", err)
	}
	if _, err := ims.EffortConfig("", *effort); err != nil {
		obs.Usagef("%v", err)
	}

	failed := false
	for _, name := range flag.Args() {
		var text []byte
		var err error
		if name == "-" {
			name = "<stdin>"
			text, err = io.ReadAll(os.Stdin)
		} else {
			text, err = os.ReadFile(name)
		}
		if err != nil {
			// Read and parse failures exit 2 per the documented contract;
			// the slog wrapper keeps diagnostics uniform across commands.
			obs.Usagef("%v", err)
		}
		prog, err := source.Parse(string(text))
		if err != nil {
			obs.Usagef("%s: %v", name, err)
		}
		rep, err := analysis.LintProgram(name, prog, opts)
		if err != nil {
			obs.Usagef("%s: %v", name, err)
		}
		if *optgap {
			diags, err := analysis.Optgap(prog, analysis.OptgapOptions{Machine: optMachine, Effort: *effort})
			if err != nil {
				obs.Usagef("%s: optgap: %v", name, err)
			}
			rep.Diags = append(rep.Diags, diags...)
		}
		if *jsonOut {
			raw, err := rep.JSON()
			if err != nil {
				obs.Usagef("%v", err)
			}
			fmt.Println(string(raw))
		} else {
			fmt.Print(rep.Render(*quiet))
		}
		failed = failed || rep.HasErrors()
	}
	if err := tele.Finish(); err != nil {
		obs.Fatalf("%v", err)
	}
	if failed {
		os.Exit(1)
	}
}
