package trau

// Benchmarks regenerating the paper's evaluation (§9): one benchmark
// per table/suite (Tables 1 and 2 are per-suite sweeps; Table 3 is the
// checkLuhn family), plus the numeric-PFA ablation against the
// baselines and micro-benchmarks of the substrates.
//
// Run with: go test -bench=. -benchmem
// The full comparison tables (solver vs. baselines, with counts) are
// produced by: go run ./cmd/benchtab

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flatten"
	"repro/internal/lia"
	"repro/internal/regex"
	"repro/internal/sat"
)

const benchTimeout = 5 * time.Second

// runSuite solves every instance of a generated suite with the paper's
// solver and reports instances/op metrics.
func runSuite(b *testing.B, insts []*bench.Instance) {
	b.Helper()
	solved := 0
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			res := core.Solve(inst.Build(), core.Options{Timeout: benchTimeout})
			if res.Status != core.StatusUnknown {
				solved++
			}
		}
	}
	b.ReportMetric(float64(solved)/float64(b.N), "solved/suite")
	b.ReportMetric(float64(len(insts)), "instances")
}

// --- Table 1: basic string constraints -------------------------------

func BenchmarkTable1(b *testing.B) {
	for _, suite := range bench.Table1Suites(8) {
		b.Run(suite.Name, func(b *testing.B) { runSuite(b, suite.Instances) })
	}
}

// --- Table 2: string-number conversion --------------------------------

func BenchmarkTable2(b *testing.B) {
	for _, suite := range bench.Table2Suites(8) {
		b.Run(suite.Name, func(b *testing.B) { runSuite(b, suite.Instances) })
	}
}

// --- Table 3: checkLuhn ----------------------------------------------

func BenchmarkTable3Luhn(b *testing.B) {
	for _, k := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("loops-%d", k), func(b *testing.B) {
			inst := bench.Luhn(k)
			for i := 0; i < b.N; i++ {
				res := core.Solve(inst.Build(), core.Options{Timeout: 30 * time.Second})
				if res.Status != core.StatusSat {
					b.Fatalf("luhn-%d: %v", k, res.Status)
				}
			}
		})
	}
}

// --- §1 toy formula Φ -------------------------------------------------

func BenchmarkToyPhi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		x := s.StrVar("x")
		y := s.StrVar("y")
		nx := s.IntVar("nx")
		ny := s.IntVar("ny")
		s.Require(
			Eq(T(C("0"), V(x)), T(V(x), C("0"))),
			ToNum(nx, x),
			ToNum(ny, y),
			IntEq(IntVal(nx), IntVal(ny)),
			IntGt(s.Len(y), s.Len(x)),
			IntGt(s.Len(x), IntConst(1)),
			IntGt(s.Len(y), IntConst(1000)),
		)
		if res := s.Solve(); res.Status != StatusSat {
			b.Fatalf("Φ: %v", res.Status)
		}
	}
}

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationNumericPFA contrasts the numeric PFA (the paper's
// core trick) against the baseline enumeration on a conversion
// instance, quantifying the headline speedup.
func BenchmarkAblationNumericPFA(b *testing.B) {
	insts := bench.Table2Suites(4)[0].Instances
	for _, s := range bench.Solvers() {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, inst := range insts {
					s.Solve(inst.Build(), backend.Options{}, engine.WithTimeout(benchTimeout))
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---------------------------------------

func BenchmarkSATPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		n := 7
		p := make([][]int, n+1)
		for r := range p {
			p[r] = make([]int, n)
			for c := range p[r] {
				p[r][c] = s.NewVar()
			}
		}
		for r := 0; r <= n; r++ {
			lits := make([]sat.Lit, n)
			for c := 0; c < n; c++ {
				lits[c] = sat.MkLit(p[r][c], false)
			}
			s.AddClause(lits...)
		}
		for c := 0; c < n; c++ {
			for r1 := 0; r1 <= n; r1++ {
				for r2 := r1 + 1; r2 <= n; r2++ {
					s.AddClause(sat.MkLit(p[r1][c], true), sat.MkLit(p[r2][c], true))
				}
			}
		}
		if s.Solve() != sat.Unsat {
			b.Fatal("pigeonhole must be unsat")
		}
	}
}

func BenchmarkLIADiophantine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := lia.NewPool()
		x, y, z := p.Fresh("x"), p.Fresh("y"), p.Fresh("z")
		f := lia.And(
			lia.Eq(lia.V(x).ScaleInt(7).Add(lia.V(y).ScaleInt(11)).Add(lia.V(z).ScaleInt(13)), lia.Const(201)),
			lia.Ge(lia.V(x), lia.Const(0)), lia.Ge(lia.V(y), lia.Const(0)), lia.Ge(lia.V(z), lia.Const(0)),
		)
		if res, _ := lia.Solve(f, nil); res != lia.ResSat {
			b.Fatal(res)
		}
	}
}

func BenchmarkRegexCompile(b *testing.B) {
	pat := "(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])"
	for i := 0; i < b.N; i++ {
		if _, err := regex.Compile(pat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlattenLuhn8(b *testing.B) {
	inst := bench.Luhn(8)
	for i := 0; i < b.N; i++ {
		prob := inst.Build()
		prob.Prepare()
		fl := flatten.Flatten(prob, prob.Constraints, flatten.DefaultParams, nil)
		_ = fl.Formula
	}
}
