package simplex

import (
	"math/big"
	"testing"
)

// benchTableau builds a solver with nv problem variables and one slack
// per window of w consecutive variables, so columns are shared across
// rows and pivots exercise the substitution merge.
func benchTableau(nv, w int) (*Solver, []int) {
	s := New(nv)
	slacks := make([]int, 0, nv)
	for i := 0; i+w <= nv; i += w / 2 {
		def := make(map[int]*big.Int, w)
		for j := 0; j < w; j++ {
			c := int64(j + 1)
			if (i+j)%2 == 1 {
				c = -c
			}
			def[i+j] = big.NewInt(c)
		}
		slacks = append(slacks, s.DefineSlack(def))
	}
	return s, slacks
}

// BenchmarkPivot measures the raw row-transform + substitution cost of
// one pivot by swapping a basic/nonbasic pair back and forth.
func BenchmarkPivot(b *testing.B) {
	benchmarkPivot(b)
}

// BenchmarkPivotSlowPath is the same workload with every rval routed
// through big.Rat: the A/B pair quantifies the machine-word win.
func BenchmarkPivotSlowPath(b *testing.B) {
	ForceSlowPath = true
	defer func() { ForceSlowPath = false }()
	benchmarkPivot(b)
}

func benchmarkPivot(b *testing.B) {
	s, slacks := benchTableau(32, 8)
	basic, nonb := slacks[0], 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.pivot(basic, nonb, nil)
		basic, nonb = nonb, basic
	}
}

// denseTableau builds rows of about 100 entries, the density pivot
// fill-in reaches on luhn-08: 20 slacks over overlapping windows of 100
// consecutive variables, with small coefficients of both signs. It
// returns a slack and a variable that every row contains, so a pivot on
// the pair substitutes into all the other rows.
func denseTableau() (s *Solver, basic, nonb int) {
	const nv, w, rows = 120, 100, 20
	s = New(nv)
	for r := 0; r < rows; r++ {
		def := make(map[int]*big.Int, w)
		for j := r; j < r+w; j++ {
			c := int64((r*7+j*3)%9) - 4
			if c == 0 {
				c = 5
			}
			def[j] = big.NewInt(c)
		}
		sl := s.DefineSlack(def)
		if r == 0 {
			basic = sl
		}
	}
	return s, basic, 60
}

// BenchmarkPivotDense measures one pivot on dense rows: the row
// transform plus 19 substitution merges of about 100 entries each. A
// pivot and its reverse restore the tableau exactly, so the workload is
// stationary.
func BenchmarkPivotDense(b *testing.B) {
	benchmarkPivotDense(b)
}

// BenchmarkPivotDenseSlowPath is BenchmarkPivotDense with every row in
// rational form and every rval on the big.Rat fallback.
func BenchmarkPivotDenseSlowPath(b *testing.B) {
	ForceSlowPath = true
	defer func() { ForceSlowPath = false }()
	benchmarkPivotDense(b)
}

func benchmarkPivotDense(b *testing.B) {
	s, basic, nonb := denseTableau()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.pivot(basic, nonb, nil)
		basic, nonb = nonb, basic
	}
}

// TestPivotDenseAllocFree requires the fast path's dense pivot to run
// without allocating once the row and scratch arrays have grown.
func TestPivotDenseAllocFree(t *testing.T) {
	s, basic, nonb := denseTableau()
	step := func() {
		s.pivot(basic, nonb, nil)
		basic, nonb = nonb, basic
	}
	for i := 0; i < 20; i++ {
		step()
	}
	for r, row := range s.rows {
		if row != nil && row.den == 0 {
			t.Fatalf("row of x%d fell back to rational form", r)
		}
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("dense pivot allocates %v times per run, want 0", allocs)
	}
}

// BenchmarkCheck measures feasibility restoration under alternating
// bound flips: every iteration pushes bounds that violate the current
// assignment, so Check must pivot, then pops them.
func BenchmarkCheck(b *testing.B) {
	benchmarkCheck(b)
}

// BenchmarkCheckSlowPath is BenchmarkCheck on the big.Rat fallback.
func BenchmarkCheckSlowPath(b *testing.B) {
	ForceSlowPath = true
	defer func() { ForceSlowPath = false }()
	benchmarkCheck(b)
}

func benchmarkCheck(b *testing.B) {
	s, slacks := benchTableau(24, 6)
	for v := 0; v < 24; v++ {
		s.AssertLower(v, big.NewRat(-50, 1), NoTag)
		s.AssertUpper(v, big.NewRat(50, 1), NoTag)
	}
	if c := s.Check(); c != nil {
		b.Fatalf("base system infeasible: %+v", c)
	}
	lo := NumFromInt64(20)
	hi := NumFromInt64(-20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := slacks[i%len(slacks)]
		s.Push()
		if i%2 == 0 {
			s.AssertLowerNum(e, lo, NoTag)
		} else {
			s.AssertUpperNum(e, hi, NoTag)
		}
		if c := s.Check(); c != nil && !c.Budget {
			b.Fatalf("iter %d: unexpected conflict", i)
		}
		s.Pop()
	}
}
