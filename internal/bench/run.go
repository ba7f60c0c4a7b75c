package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/portfolio"
)

// Solvers returns the engines of the evaluation, one comparison row
// each: the paper's refinement solver (Z3-Trau reproduction), the two
// baseline families standing in for the closed competitor tools (see
// package doc of internal/baseline), and the portfolio racing the whole
// registry — all resolved from the backend registry. The portfolio row
// carries fresh scheduling state per call, so repeated table runs
// start from the same unbiased schedule.
func Solvers() []backend.Backend {
	out := make([]backend.Backend, 0, 4)
	for _, name := range []string{"refine", "enum", "split"} {
		b, ok := backend.Get(name)
		if !ok {
			panic("bench: backend missing from registry: " + name) // contract: registry is fixed
		}
		out = append(out, b)
	}
	return append(out, portfolio.New(portfolio.Config{}))
}

// SolverByName resolves one comparison row: any registry backend by
// name, or "portfolio" for a fresh portfolio over the whole registry.
func SolverByName(name string) (backend.Backend, bool) {
	if name == "portfolio" {
		return portfolio.New(portfolio.Config{}), true
	}
	return backend.Get(name)
}

// SolverNames lists every name SolverByName resolves.
func SolverNames() []string {
	return append(backend.Names(), "portfolio")
}

// Counts are the per-suite result counters, with the same rows as the
// paper's tables.
type Counts struct {
	Sat       int
	Unsat     int
	Unknown   int
	Timeout   int
	Incorrect int
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Sat += other.Sat
	c.Unsat += other.Unsat
	c.Unknown += other.Unknown
	c.Timeout += other.Timeout
	c.Incorrect += other.Incorrect
}

// Agg aggregates solver statistics over the instances of a suite,
// summed from each run's stats tree.
type Agg struct {
	Instances int64
	Rounds    int64
	Conflicts int64
	Pivots    int64
}

// Add accumulates other into a.
func (a *Agg) Add(other Agg) {
	a.Instances += other.Instances
	a.Rounds += other.Rounds
	a.Conflicts += other.Conflicts
	a.Pivots += other.Pivots
}

// mean renders n/a.Instances with one decimal.
func (a Agg) mean(n int64) string {
	if a.Instances == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(n)/float64(a.Instances))
}

// Cell renders the aggregate as mean rounds/conflicts/pivots per
// instance.
func (a Agg) Cell() string {
	return fmt.Sprintf("%s/%s/%s", a.mean(a.Rounds), a.mean(a.Conflicts), a.mean(a.Pivots))
}

// instResult is one instance's outcome plus the statistics totals the
// suite aggregates.
type instResult struct {
	status    core.Status
	timedOut  bool
	rounds    int64
	conflicts int64
	pivots    int64
}

// SuiteResult is the full outcome of running one suite through one
// solver: the status counters and the aggregate solver statistics.
type SuiteResult struct {
	Counts Counts
	Agg    Agg
}

// RunSuite runs every instance of a suite through one backend, on up to
// workers goroutines (values <= 1 run sequentially; the counts are
// identical either way). An instance counts as TIMEOUT only when its
// context actually expired — an early "unknown" (budget exhaustion,
// incomplete fragment) stays an UNKNOWN even if it took a while.
func RunSuite(insts []*Instance, solver backend.Backend, timeout time.Duration, workers int) SuiteResult {
	results := make([]instResult, len(insts))
	run1 := func(i int) {
		ec := engine.WithTimeout(timeout)
		status := solver.Solve(insts[i].Build(), backend.Options{}, ec).Status
		st := ec.Stats()
		results[i] = instResult{
			status:    status,
			timedOut:  ec.TimedOut(),
			rounds:    st.Total("rounds"),
			conflicts: st.Total("conflicts"),
			pivots:    st.Total("pivots"),
		}
	}
	if workers > len(insts) {
		workers = len(insts)
	}
	if workers <= 1 {
		for i := range insts {
			run1(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() { //lint:nocontain — run1 solves through core.SolveCtx, whose boundary contains panics
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(insts) {
						return
					}
					run1(i)
				}
			}()
		}
		wg.Wait()
	}

	var c Counts
	var agg Agg
	for i, inst := range insts {
		r := results[i]
		switch r.status {
		case core.StatusSat:
			if inst.Expected == ExpectUnsat {
				c.Incorrect++
			} else {
				c.Sat++
			}
		case core.StatusUnsat:
			if inst.Expected == ExpectSat {
				c.Incorrect++
			} else {
				c.Unsat++
			}
		default:
			if r.timedOut {
				c.Timeout++
			} else {
				c.Unknown++
			}
		}
		if r.timedOut {
			// A timed-out run's counters reflect wherever the deadline
			// happened to land, which would make the aggregate row vary
			// with machine load. Completed runs (including deterministic
			// budget-exhaustion UNKNOWNs) have reproducible counters.
			continue
		}
		agg.Instances++
		agg.Rounds += r.rounds
		agg.Conflicts += r.conflicts
		agg.Pivots += r.pivots
	}
	return SuiteResult{Counts: c, Agg: agg}
}

// Table runs all suites against all solvers and renders the result in
// the layout of the paper's Tables 1 and 2, followed by per-suite
// aggregate solver statistics. workers bounds the per-suite instance
// parallelism; the output is byte-identical for every worker count.
func Table(w io.Writer, suites []Suite, solvers []backend.Backend, timeout time.Duration, workers int) {
	rows := []string{"SAT", "UNSAT", "UNKNOWN", "TIMEOUT", "INCORRECT"}
	pick := func(c Counts, row string) int {
		switch row {
		case "SAT":
			return c.Sat
		case "UNSAT":
			return c.Unsat
		case "UNKNOWN":
			return c.Unknown
		case "TIMEOUT":
			return c.Timeout
		default:
			return c.Incorrect
		}
	}
	fmt.Fprintf(w, "%-12s %-10s", "Suite", "Result")
	for _, s := range solvers {
		fmt.Fprintf(w, " %10s", s.Name())
	}
	fmt.Fprintln(w)
	totals := make([]Counts, len(solvers))
	aggs := make([][]Agg, len(suites))
	for si, suite := range suites {
		counts := make([]Counts, len(solvers))
		aggs[si] = make([]Agg, len(solvers))
		for i, s := range solvers {
			r := RunSuite(suite.Instances, s, timeout, workers)
			counts[i], aggs[si][i] = r.Counts, r.Agg
			totals[i].Add(counts[i])
		}
		for ri, row := range rows {
			label := ""
			if ri == 0 {
				label = suite.Name
			}
			fmt.Fprintf(w, "%-12s %-10s", label, row)
			for i := range solvers {
				fmt.Fprintf(w, " %10d", pick(counts[i], row))
			}
			fmt.Fprintln(w)
		}
	}
	for ri, row := range rows {
		label := ""
		if ri == 0 {
			label = "Total"
		}
		fmt.Fprintf(w, "%-12s %-10s", label, row)
		for i := range solvers {
			fmt.Fprintf(w, " %10d", pick(totals[i], row))
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Mean statistics per instance (rounds/conflicts/pivots)")
	fmt.Fprintf(w, "%-12s", "Suite")
	for _, s := range solvers {
		fmt.Fprintf(w, " %22s", s.Name())
	}
	fmt.Fprintln(w)
	for si, suite := range suites {
		fmt.Fprintf(w, "%-12s", suite.Name)
		for i := range solvers {
			fmt.Fprintf(w, " %22s", aggs[si][i].Cell())
		}
		fmt.Fprintln(w)
	}
}

// LuhnResult is the outcome of one solver on one checkLuhn instance.
type LuhnResult struct {
	K        int
	Status   core.Status
	TimedOut bool
	Elapsed  time.Duration
	Agg      Agg
}

// RunLuhn runs one solver over the checkLuhn family with 2..maxLoops
// loops (the paper's Table 3 workload), sequentially.
func RunLuhn(maxLoops int, solver backend.Backend, timeout time.Duration) []LuhnResult {
	var out []LuhnResult
	for k := 2; k <= maxLoops; k++ {
		inst := Luhn(k)
		ec := engine.WithTimeout(timeout)
		start := time.Now()
		status := solver.Solve(inst.Build(), backend.Options{}, ec).Status
		st := ec.Stats()
		out = append(out, LuhnResult{
			K:        k,
			Status:   status,
			TimedOut: ec.TimedOut(),
			Elapsed:  time.Since(start),
			Agg: Agg{
				Instances: 1,
				Rounds:    st.Total("rounds"),
				Conflicts: st.Total("conflicts"),
				Pivots:    st.Total("pivots"),
			},
		})
	}
	return out
}

// Table3 runs the checkLuhn family (the paper's Table 3) and renders
// status and time per solver and loop count, followed by aggregate
// solver statistics over the family.
func Table3(w io.Writer, maxLoops int, solvers []backend.Backend, timeout time.Duration) {
	fmt.Fprintf(w, "%-8s", "# Loops")
	for _, s := range solvers {
		fmt.Fprintf(w, " %20s", s.Name())
	}
	fmt.Fprintln(w)
	aggs := make([]Agg, len(solvers))
	results := make([][]LuhnResult, len(solvers))
	for i, s := range solvers {
		results[i] = RunLuhn(maxLoops, s, timeout)
	}
	for ki := 0; ki <= maxLoops-2; ki++ {
		fmt.Fprintf(w, "%-8d", ki+2)
		for i := range solvers {
			r := results[i][ki]
			if !r.TimedOut {
				// See RunSuite: timed-out counters vary with load.
				aggs[i].Add(r.Agg)
			}
			cell := "UNKNOWN"
			switch r.Status {
			case core.StatusSat:
				cell = fmt.Sprintf("SAT(%v)", r.Elapsed.Round(10*time.Millisecond))
			case core.StatusUnsat:
				cell = "INCORRECT"
			default:
				if r.TimedOut {
					cell = "TIMEOUT"
				}
			}
			fmt.Fprintf(w, " %20s", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Mean statistics per instance (rounds/conflicts/pivots)")
	fmt.Fprintf(w, "%-8s", "")
	for i, s := range solvers {
		fmt.Fprintf(w, " %20s", s.Name()+" "+aggs[i].Cell())
	}
	fmt.Fprintln(w)
}
