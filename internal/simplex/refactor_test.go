package simplex

import (
	"math/big"
	"testing"
)

func TestUndoTrailPushPop(t *testing.T) {
	s := New(2)
	sum := s.DefineSlack(map[int]*big.Int{0: big.NewInt(1), 1: big.NewInt(1)})
	if c := s.AssertLower(0, rat(1, 1), 1); c != nil {
		t.Fatal(c)
	}
	s.Push()
	s.Push()
	if c := s.AssertUpper(sum, rat(1, 1), 2); c != nil {
		t.Fatal(c)
	}
	if c := s.AssertLower(1, rat(1, 1), 3); c != nil {
		t.Fatal(c)
	}
	if s.Check() == nil {
		t.Fatal("x>=1, y>=1, x+y<=1 must conflict")
	}
	s.Pop()
	s.Pop()
	// Outer frame: only x >= 1 remains; y free.
	if c := s.AssertUpper(1, rat(-5, 1), 4); c != nil {
		t.Fatal("y <= -5 should be fine after pop")
	}
	if c := s.Check(); c != nil {
		t.Fatalf("unexpected conflict after pop: %+v", c)
	}
}

func TestRefactorizePreservesFeasibility(t *testing.T) {
	// Build a system, force pivoting, refactorize explicitly, and
	// verify values still satisfy all constraints.
	s := New(3)
	e1 := s.DefineSlack(map[int]*big.Int{0: big.NewInt(1), 1: big.NewInt(2)})
	e2 := s.DefineSlack(map[int]*big.Int{1: big.NewInt(1), 2: big.NewInt(-1)})
	e3 := s.DefineSlack(map[int]*big.Int{0: big.NewInt(3), 2: big.NewInt(1)})
	s.AssertLower(e1, rat(4, 1), 1)
	s.AssertUpper(e2, rat(0, 1), 2)
	s.AssertLower(e3, rat(2, 1), 3)
	s.AssertLower(0, rat(0, 1), 4)
	if c := s.Check(); c != nil {
		t.Fatalf("feasible system rejected: %+v", c)
	}
	check := func(stage string) {
		x0, x1, x2 := s.Value(0), s.Value(1), s.Value(2)
		v1 := new(big.Rat).Add(x0, new(big.Rat).Mul(rat(2, 1), x1))
		v2 := new(big.Rat).Sub(x1, x2)
		v3 := new(big.Rat).Add(new(big.Rat).Mul(rat(3, 1), x0), x2)
		if v1.Cmp(rat(4, 1)) < 0 || v2.Sign() > 0 || v3.Cmp(rat(2, 1)) < 0 || x0.Sign() < 0 {
			t.Fatalf("%s: invalid solution x=(%v,%v,%v)", stage, x0, x1, x2)
		}
		if s.Value(e1).Cmp(v1) != 0 {
			t.Fatalf("%s: slack value out of sync", stage)
		}
	}
	check("before")
	s.refactorize()
	if c := s.Check(); c != nil {
		t.Fatalf("refactorized system rejected: %+v", c)
	}
	check("after")
}

func TestDefineSlackRejectsSlackRefs(t *testing.T) {
	s := New(1)
	sl := s.DefineSlack(map[int]*big.Int{0: big.NewInt(1)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on slack-referencing definition")
		}
	}()
	s.DefineSlack(map[int]*big.Int{sl: big.NewInt(1)})
}

func TestEnsureVars(t *testing.T) {
	s := New(1)
	s.EnsureVars(5)
	if s.NumVars() != 5 {
		t.Fatalf("NumVars = %d", s.NumVars())
	}
	if c := s.AssertLower(4, rat(7, 1), 1); c != nil {
		t.Fatal(c)
	}
	if c := s.Check(); c != nil {
		t.Fatal(c)
	}
	if s.Value(4).Cmp(rat(7, 1)) < 0 {
		t.Fatal("bound not respected on grown var")
	}
}

// TestRowOverflowsToRationalAndNarrowsBack pivots a row whose integer
// form would need a 2^80 numerator, so it falls back to rvals, then
// pivots back and checks that it returns to integer form with its
// original numerators.
func TestRowOverflowsToRationalAndNarrowsBack(t *testing.T) {
	a := int64(1) << 40
	s := New(2)
	s1 := s.DefineSlack(map[int]*big.Int{0: big.NewInt(a), 1: big.NewInt(1)})
	s2 := s.DefineSlack(map[int]*big.Int{0: big.NewInt(1), 1: big.NewInt(a)})
	row := s.rows[s2]
	if row.den != 1 || len(row.num) != 2 || row.num[0] != 1 || row.num[1] != a {
		t.Fatalf("s2 starts as %v/%d, want [1 2^40]/1", row.num, row.den)
	}
	// x0 = (s1 - x1)/2^40, so s2 = (s1 + (2^80-1) x1)/2^40.
	s.pivot(s1, 0, nil)
	if row.den != 0 {
		t.Fatalf("s2 kept integer form %v/%d across a 2^80 numerator", row.num, row.den)
	}
	if p := row.find(1); p < 0 || !row.coef[p].isWide {
		t.Fatalf("s2's x1 coefficient should be wide, row %+v", row)
	}
	want := new(big.Rat).SetFrac(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(1)),
		big.NewInt(a))
	if got := row.coef[row.find(1)].rat(); got.Cmp(want) != 0 {
		t.Fatalf("s2's x1 coefficient = %v, want %v", got, want)
	}
	// Pivoting back restores s2 = x0 + 2^40 x1, which fits again.
	s.pivot(0, s1, nil)
	if row.den != 1 || len(row.num) != 2 || row.num[0] != 1 || row.num[1] != a {
		t.Fatalf("s2 did not narrow back: den %d, num %v, coef %+v", row.den, row.num, row.coef)
	}

	// Under ForceSlowPath every row stays rational.
	ForceSlowPath = true
	defer func() { ForceSlowPath = false }()
	s = New(2)
	s.DefineSlack(map[int]*big.Int{0: big.NewInt(a), 1: big.NewInt(1)})
	s2 = s.DefineSlack(map[int]*big.Int{0: big.NewInt(1), 1: big.NewInt(a)})
	if s.rows[s2].den != 0 {
		t.Fatal("ForceSlowPath row in integer form")
	}
}
