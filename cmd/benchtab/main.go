// Command benchtab regenerates the evaluation tables of the paper
// (Tables 1, 2, and 3 of §9) with this reproduction's solver and the
// two in-repo baseline families.
//
// Usage:
//
//	benchtab -table 1 -per 40 -timeout 5s
//	benchtab -table 2 -per 30 -timeout 5s
//	benchtab -table 3 -loops 12 -timeout 10s
//	benchtab -table all -j 4
//	benchtab -table 2 -solvers refine,portfolio
//
// -j runs the instances of each suite on N worker goroutines; the
// emitted tables are byte-identical for every worker count.
// -solvers picks the columns: backend registry names or portfolio.
// -cpuprofile/-memprofile write pprof profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	table := fs.String("table", "all", "which table to regenerate: 1, 2, 3, or all")
	per := fs.Int("per", 30, "instances per suite (tables 1 and 2)")
	loops := fs.Int("loops", 12, "maximum checkLuhn loop count (table 3)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-instance timeout")
	workers := fs.Int("j", 1, "instance-level worker goroutines per suite")
	only := fs.String("solvers", "", "comma-separated solver names to run: any backend registry name or portfolio (default: refine, enum, split, portfolio)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	solvers := bench.Solvers()
	if *only != "" {
		// Resolve each requested name from the shared backend registry
		// (plus the portfolio row), keeping the flag's order.
		var sel []backend.Backend
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			s, ok := bench.SolverByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchtab: unknown solver %q (have %s)\n",
					name, strings.Join(bench.SolverNames(), ", "))
				return 2
			}
			sel = append(sel, s)
		}
		if len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "benchtab: no solver matches -solvers %q\n", *only)
			return 2
		}
		solvers = sel
	}
	rc := runTables(*table, *per, *loops, *timeout, *workers, solvers)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
	}
	return rc
}

func runTables(table string, per, loops int, timeout time.Duration, workers int, solvers []backend.Backend) int {
	run1 := func() {
		fmt.Println("Table 1: basic string constraints")
		bench.Table(os.Stdout, bench.Table1Suites(per), solvers, timeout, workers)
		fmt.Println()
	}
	run2 := func() {
		fmt.Println("Table 2: string-number conversion")
		bench.Table(os.Stdout, bench.Table2Suites(per), solvers, timeout, workers)
		fmt.Println()
	}
	run3 := func() {
		fmt.Println("Table 3: checkLuhn with 2..N loops")
		bench.Table3(os.Stdout, loops, solvers, timeout)
		fmt.Println()
	}
	switch table {
	case "1":
		run1()
	case "2":
		run2()
	case "3":
		run3()
	case "all":
		run1()
		run2()
		run3()
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", table)
		return 2
	}
	return 0
}
