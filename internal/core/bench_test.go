package core

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/flatten"
	"repro/internal/lia"
	"repro/internal/regex"
	"repro/internal/strcon"
)

// buildLuhnBench replicates the checkLuhn generator of internal/bench
// (which cannot be imported here: bench imports core). It is the
// Table 3 workload: a k-digit nonzero string whose Luhn checksum ends
// in "0".
func buildLuhnBench(k int) *strcon.Problem {
	prob := strcon.NewProblem()
	value := prob.NewStrVar("value0")
	prob.Add(&strcon.Membership{X: value, A: regex.MustCompile("[1-9]+"), Pattern: "[1-9]+"})
	prob.Add(&strcon.Arith{F: lia.EqConst(prob.LenVar(value), int64(k))})
	chars := make([]strcon.Var, k)
	term := make(strcon.Term, k)
	for i := range chars {
		chars[i] = prob.NewStrVar(fmt.Sprintf("c%d", i))
		term[i] = strcon.TV(chars[i])
		prob.Add(&strcon.Arith{F: lia.EqConst(prob.LenVar(chars[i]), 1)})
	}
	prob.Add(&strcon.WordEq{L: strcon.T(strcon.TV(value)), R: term})
	sum := lia.NewLin()
	for i := 0; i < k; i++ {
		d := prob.NewIntVar(fmt.Sprintf("d%d", i))
		prob.Add(&strcon.ToNum{N: d, X: chars[i]})
		if (k-1-i)%2 == 0 {
			sum.AddTermInt(d, 1)
			continue
		}
		e := prob.NewIntVar(fmt.Sprintf("e%d", i))
		dbl := lia.V(d).ScaleInt(2)
		prob.Add(&strcon.Arith{F: lia.Or(
			lia.And(lia.Ge(dbl.Clone(), lia.Const(10)), lia.Eq(lia.V(e), dbl.Clone().AddConst(-9))),
			lia.And(lia.Le(dbl.Clone(), lia.Const(9)), lia.Eq(lia.V(e), dbl.Clone())),
		)})
		sum.AddTermInt(e, 1)
	}
	total := prob.NewIntVar("sum")
	prob.Add(&strcon.Arith{F: lia.Eq(lia.V(total), sum)})
	sumStr := prob.NewStrVar("sumStr")
	pre := prob.NewStrVar("sumPre")
	prob.Add(&strcon.ToStr{N: total, X: sumStr})
	prob.Add(&strcon.WordEq{
		L: strcon.T(strcon.TV(sumStr)),
		R: strcon.T(strcon.TV(pre), strcon.TC("0")),
	})
	return prob
}

// benchLuhn is the solver-level hot path: the full decision procedure
// on one checkLuhn instance (the Table 3 workload).
func benchLuhn(b *testing.B, k int, o Options) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prob := buildLuhnBench(k)
		res := SolveCtx(prob, o, engine.Background())
		if res.Status != StatusSat {
			b.Fatalf("luhn-%d: got %v, want sat", k, res.Status)
		}
	}
}

// BenchmarkRefineLoop measures the refinement loop end to end, one
// persistent lia session per branch.
func BenchmarkRefineLoop(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("luhn-%02d", k), func(b *testing.B) {
			benchLuhn(b, k, Options{})
		})
	}
}

// BenchmarkFlattenRound measures one round's flattening of a checkLuhn
// branch (formula construction only, no solving).
func BenchmarkFlattenRound(b *testing.B) {
	for _, k := range []int{6, 10} {
		b.Run(fmt.Sprintf("luhn-%02d", k), func(b *testing.B) {
			prob := buildLuhnBench(k)
			prob.Prepare()
			params := flatten.Params{M: 5, Loops: 2, LoopLen: 2}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bp := prob.WithConstraints(prob.Constraints)
				fl := flatten.Flatten(bp, bp.Constraints, params, engine.Background())
				if lia.FormulaSize(fl.Formula) == 0 {
					b.Fatal("empty flattening")
				}
			}
		})
	}
}
