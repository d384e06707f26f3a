// Command slmsexplain shows the SLMS algorithm's intermediate artifacts
// for every innermost loop of a program: the multi-instructions, the
// data dependence graph with <distance, delay> labels, the MII
// derivation, and the chosen schedule. This is the "interactive source
// level compiler" view of §2/§8 of the paper — the output a user reads
// to decide how to restructure a loop.
//
// Usage:
//
//	slmsexplain file.c   (use - for stdin)
//
// Flags:
//
//	-dot                       emit each loop's DDG as graphviz dot
//	-trace FILE                write a pipeline trace at exit
//	-trace-format chrome|jsonl trace file format (default chrome)
//	-metrics FILE              write a metrics dump at exit ("-" = stdout)
//	-request-id ID             stamp spans and decision records with this ID
//	-q                         suppress status output
//
// Every loop's report ends with its decision record: the stable SLMS2xx
// code, the accept/skip verdict, and the measured evidence (filter
// ratio, II search iterations) the decision rests on. The loops are the
// ones slmsc and /v1/compile transform (pipeline.Transform at the
// paper's defaults), and every block of the report is printed in a
// fixed order, so reruns print the same bytes.
package main

import (
	"context"
	"flag"
	"fmt"
	"sort"
	"strings"

	"slms/internal/core"
	"slms/internal/ddg"
	"slms/internal/mii"
	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/sem"
	"slms/internal/source"
)

var dotOut = flag.Bool("dot", false, "emit the DDG of each loop as graphviz dot instead of text")

func main() {
	tele := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	tele.Activate()
	defer tele.MustFinish()
	if flag.NArg() != 1 {
		obs.Usagef("usage: slmsexplain file.c  (use - for stdin)")
	}
	var r pipeline.Request
	if err := r.ReadSource(flag.Arg(0)); err != nil {
		obs.Fatalf("%v", err)
	}
	sp := obs.Root("slmsexplain").Attr("file", flag.Arg(0))
	defer sp.End()
	// The compiler's own site walk and per-loop results: every loop is
	// explained as the compiler decided it, under its enclosing guards.
	_, _, results, err := pipeline.Transform(obs.ContextWithSpan(context.Background(), sp), &r)
	if err != nil {
		obs.Fatalf("%v", err)
	}
	if len(results) == 0 {
		fmt.Println("no innermost canonical loops found")
	}
	for i, r := range results {
		explainLoop(r, i+1)
	}
}

// dotDDG renders the dependence graph in graphviz dot format: solid
// edges are data dependences labelled <dist,delay>, dashed edges the
// implicit sequential chain.
func dotDDG(g *ddg.Graph, mis []source.Stmt) string {
	var b strings.Builder
	b.WriteString("digraph ddg {\n  rankdir=TB;\n  node [shape=box, fontname=monospace];\n")
	for i := 0; i < g.N; i++ {
		label := fmt.Sprintf("MI%d", i)
		if i < len(mis) {
			label = fmt.Sprintf("MI%d: %s", i, strings.ReplaceAll(source.PrintStmt(mis[i]), "\"", "'"))
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", i, label)
	}
	for _, e := range g.Edges {
		if e.Chain {
			fmt.Fprintf(&b, "  n%d -> n%d [style=dashed, color=gray];\n", e.From, e.To)
			continue
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%s <%d,%d>\"];\n", e.From, e.To, e.Kind, e.Dist, e.Delay)
	}
	b.WriteString("}\n")
	return b.String()
}

// printDecision renders a loop's decision record: the stable code, the
// verdict, the loop's position and the measured evidence (sorted for
// deterministic output).
func printDecision(r *core.Result) {
	d := r.Decision
	fmt.Printf("decision: %s verdict=%s loop=%s", d.Code, d.Verdict, r.Pos)
	if d.Reason != "" {
		fmt.Printf(" (%s)", d.Reason)
	}
	fmt.Println()
	keys := make([]string, 0, len(d.Attrs))
	for k := range d.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s = %v\n", k, d.Attrs[k])
	}
}

// explainLoop prints one loop's report from its transform result: the
// dependence analysis the transform ran (over the if-converted, renamed
// and decomposed MIs), its DDG and MII, and the decision.
func explainLoop(r *core.Result, idx int) {
	f := r.Loop
	fmt.Printf("==== loop %d ====\n", idx)
	fmt.Println(source.PrintStmt(f))

	l, err := sem.Canonicalize(f)
	if err != nil {
		fmt.Printf("not canonical: %v\n\n", err)
		return
	}
	fmt.Printf("canonical: var=%s lo=%s hi=%s step=%d\n",
		l.Var, source.ExprString(l.Lo), source.ExprString(l.Hi), l.Step)

	if an := r.Dep; an != nil {
		fmt.Printf("MIs: %d, memory refs: %d, arithmetic ops: %d\n",
			an.NumMIs, an.MemRefs, an.ArithOps)
		if p := an.Precision; p.Pairs > 0 {
			fmt.Printf("subscript pairs: %d (legacy unknown: %d, solver resolved: %d, still unknown: %d)\n",
				p.Pairs, p.LegacyUnknown, p.Resolved, p.Unresolved)
			for _, n := range p.Notes {
				fmt.Printf("  sharpened: %s\n", n)
			}
		}
		for i, mi := range an.MIs {
			fmt.Printf("  MI%d: %s\n", i, source.PrintStmt(mi))
		}
		if len(an.Scalars) > 0 {
			fmt.Println("scalars:")
			names := make([]string, 0, len(an.Scalars))
			for name := range an.Scalars {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				si := an.Scalars[name]
				fmt.Printf("  %-10s %s (defs=%v reads=%v exposed=%v)\n",
					si.Name, si.Class, si.Defs, si.Reads, si.ExposedReads)
			}
		}
		g := ddg.Build(an, true)
		if *dotOut {
			fmt.Print(dotDDG(g, an.MIs))
		} else {
			fmt.Print(g.Dump())
		}
		if ii, err := mii.Find(g, mii.Options{}); err != nil {
			fmt.Printf("MII: %v\n", err)
		} else {
			fmt.Printf("MII = %d\n", ii)
		}
	}

	if !r.Applied {
		fmt.Printf("SLMS not applied: %s\n", r.Reason)
		printDecision(r)
		fmt.Println()
		return
	}
	fmt.Printf("SLMS applied: II=%d MIs=%d stages=%d unroll=%d decompositions=%d\n",
		r.II, r.MIs, r.Stages, r.Unroll, r.Decompositions)
	printDecision(r)
	for _, line := range r.Log {
		fmt.Printf("  %s\n", line)
	}
	fmt.Println("---- transformed ----")
	fmt.Println(source.PrintStmt(r.Replacement))
	fmt.Println()
}
