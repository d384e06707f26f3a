// Command slmsbench regenerates the paper's evaluation figures (14–22
// plus the two in-text bundle-count case studies) as text tables.
//
// Usage:
//
//	slmsbench              # all figures, then per-kernel simulated cycles
//	slmsbench -figure 14   # one figure
//	slmsbench -ablations   # design-choice ablation studies
//	slmsbench -optgap      # heuristic-vs-exact scheduler optimality census
//	slmsbench -list        # list available figures
//
// The all-figures output is deterministic: it is committed as
// internal/bench/testdata/figures.golden, which the tests compare byte
// for byte. -cpuprofile/-memprofile write pprof profiles of whichever
// mode runs.
//
// -profile FILE measures the figures with cycle attribution and writes
// the suite's per-kernel profiles as a pprof protobuf (readable with
// `go tool pprof FILE`); -verify proves every SLMS application the
// harness measures before compiling it. Both are handed to the harness
// (bench.SetModes), which passes them to each measurement.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"slms/internal/bench"
	"slms/internal/ims"
	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/prof"
)

func main() {
	figure := flag.String("figure", "", "regenerate a single figure (e.g. 14, caseA)")
	list := flag.Bool("list", false, "list available figures")
	ablations := flag.Bool("ablations", false, "run the design-choice ablation studies instead")
	census := flag.Bool("census", false, "report machine-MS application before/after SLMS (paper §9.2)")
	optgap := flag.Bool("optgap", false, "report the machine-level optimality census: heuristic II vs the exact scheduler's proven minimum, per corpus loop")
	effort := flag.String("effort", "standard", "exact-prover effort for -optgap: quick, standard or max")
	extensions := flag.Bool("extensions", false, "measure the §10 while-loop and frequent-path extensions")
	summary := flag.Bool("summary", false, "one line per figure: the reproduction scoreboard")
	workers := flag.Int("workers", 0, "measurement worker-pool size (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	verify := flag.Bool("verify", false, "verify every SLMS transformation before compiling")
	profPath := flag.String("profile", "", "enable cycle attribution and write suite profiles (pprof protobuf) here")
	tele := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	// Flag misuse is a usage error (exit 2), distinct from failed work
	// (exit 1); check it before doing any work, whichever mode runs.
	if flag.NArg() != 0 {
		obs.Usagef("slmsbench takes no positional arguments (got %q)", flag.Arg(0))
	}
	if _, err := ims.EffortConfig("", *effort); err != nil {
		obs.Usagef("%v", err)
	}
	tele.Activate()
	bench.SetModes(pipeline.Modes{Profile: *profPath != "", Verify: *verify})
	if *workers > 0 {
		bench.SetWorkers(*workers)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			obs.Fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			obs.Fatalf("%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				obs.Errorf("%v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				obs.Errorf("%v", err)
			}
		}()
	}

	if *optgap {
		rows, sum, err := bench.OptgapCensus(bench.OptgapCorpus(), *effort)
		if err != nil {
			obs.Errorf("%v", err)
			os.Exit(1)
		}
		fmt.Print(bench.OptgapTable(rows, sum))
		if err := tele.Finish(); err != nil {
			obs.Errorf("%v", err)
			os.Exit(1)
		}
		return
	}

	err := run(*figure, *list, *ablations, *census, *extensions, *summary)
	if err == nil && *profPath != "" {
		err = prof.WritePprofFile(*profPath, "", bench.SuiteProfiles()...)
	}
	if ferr := tele.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		obs.Errorf("%v", err)
		os.Exit(1)
	}
}

// run dispatches one benchmark mode. Kept separate from main so the
// pprof defers above run before a failure exit.
func run(figure string, list, ablations, census, extensions, summary bool) error {
	switch {
	case summary:
		out, err := bench.Summary()
		if err != nil {
			return err
		}
		fmt.Print(out)
	case extensions:
		f, err := bench.Extensions()
		if err != nil {
			return err
		}
		fmt.Println(f.Table())
	case census:
		rows, err := bench.Census()
		if err != nil {
			return err
		}
		fmt.Print(bench.CensusTable(rows))
		prows, psum, err := bench.PrecisionCensus(bench.PrecisionCorpus())
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(bench.PrecisionTable(prows, psum))
	case ablations:
		figs, err := bench.AllAblations()
		if err != nil {
			return err
		}
		for _, f := range figs {
			fmt.Println(f.Table())
		}
	case list:
		for _, id := range bench.FigureIDs() {
			fmt.Println(id)
		}
	case figure != "":
		f, err := bench.ByID(figure)
		if err != nil {
			return err
		}
		fmt.Println(f.Table())
	default:
		figs, err := bench.AllFigures()
		if err != nil {
			return err
		}
		for _, f := range figs {
			fmt.Println(f.Table())
		}
		fmt.Print(bench.CyclesTable())
	}
	return nil
}
