// Command slmslint lints mini-C programs through the SLMS verifier: it
// transforms every innermost loop, statically proves (or refutes) that
// each applied schedule preserves the loop's dependences, explains why
// the remaining loops were rejected, and falls back to differential
// translation validation when the static checker is inconclusive. It
// runs the request that slmsd's /v1/explain runs (pipeline.Explain), so
// its diagnostics and summary equal that reply's.
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
//	-optgap           audit machine-level modulo schedules: prove each
//	                  heuristic II against the exact scheduler (SLMS31x)
//	-machine NAME     target machine for -optgap: ia64 (default),
//	                  power4, pentium or arm7
//	-effort LEVEL     exact-prover effort for -optgap: quick, standard
//	                  (the default) or max; without -optgap it is
//	                  checked and ignored
//	-trace FILE       write a pipeline trace at exit (-trace-format
//	                  chrome or jsonl)
//	-metrics FILE     write a metrics dump at exit ("-" = stdout)
//	-request-id ID    stamp spans and decision records with this
//	                  request ID
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"slms/internal/obs"
	"slms/internal/pipeline"
)

func main() {
	var r pipeline.Request
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	quiet := flag.Bool("q", false, "only warnings and errors")
	diff := flag.Bool("diff", false, "run differential validation even for proved loops")
	seeds := flag.Int("seeds", 3, "differential input sets")
	r.BindFlags(flag.CommandLine, "nofilter", "threshold", "speculate", "expand", "noguard", "machine", "effort")
	flag.Lookup("machine").Usage = "target machine for -optgap: ia64, power4, pentium or arm7"
	flag.Lookup("effort").Usage = "exact-prover effort for -optgap: quick, standard (the default) or max"
	optgap := flag.Bool("optgap", false, "audit machine-level modulo schedules: prove each heuristic II against the exact scheduler (SLMS31x diagnostics)")
	tele := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	obs.SetQuiet(*quiet)
	tele.Activate()

	if flag.NArg() == 0 {
		obs.Usagef("usage: slmslint [flags] file.c...  (use - for stdin)")
	}
	if *seeds < 1 {
		obs.Usagef("-seeds must be at least 1, got %d", *seeds)
	}
	if err := r.Validate(); err != nil {
		obs.Usagef("%v", err)
	}
	// A non-empty effort runs the optimality audit, as on /v1/explain.
	if !*optgap {
		r.Effort = ""
	} else if r.Effort == "" {
		r.Effort = "standard"
	}

	failed := false
	for _, name := range flag.Args() {
		// Read and parse failures exit 2 per the documented contract;
		// the CLI logger keeps diagnostics uniform across commands.
		if err := r.ReadSource(name); err != nil {
			obs.Usagef("%v", err)
		}
		if name == "-" {
			name = "<stdin>"
		}
		rep, _, err := pipeline.Explain(context.Background(), &r, *diff, *seeds)
		if err != nil {
			obs.Usagef("%s: %v", name, err)
		}
		rep.File = name
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
