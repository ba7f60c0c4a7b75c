package trau

import (
	"testing"
	"time"
)

func TestQuickstartToNum(t *testing.T) {
	s := NewSolver()
	x := s.StrVar("x")
	n := s.IntVar("n")
	s.Require(ToNum(n, x))
	s.Require(IntEq(IntVal(n), IntConst(42)))
	s.Require(LenEq(s.Len(x), IntConst(4)))
	res := s.Solve()
	if res.Status != StatusSat {
		t.Fatalf("got %v, want sat", res.Status)
	}
	if got := res.StrValue(x); got != "0042" {
		t.Fatalf("x = %q, want 0042", got)
	}
	if res.IntValue(n) != 42 {
		t.Fatalf("n = %d", res.IntValue(n))
	}
}

func TestWordEquationWithRegex(t *testing.T) {
	s := NewSolver()
	x := s.StrVar("x")
	y := s.StrVar("y")
	s.Require(Eq(T(V(x), V(y)), T(C("hello"))))
	s.Require(MustInRegex(y, "l+o"))
	res := s.Solve()
	if res.Status != StatusSat {
		t.Fatalf("got %v, want sat", res.Status)
	}
	if res.StrValue(x)+res.StrValue(y) != "hello" {
		t.Fatalf("model %q + %q", res.StrValue(x), res.StrValue(y))
	}
}

func TestUnsatViaOverApproximation(t *testing.T) {
	s := NewSolver()
	x := s.StrVar("x")
	n := s.IntVar("n")
	s.Require(ToNum(n, x))
	s.Require(IntGe(IntVal(n), IntConst(100)))
	s.Require(LenEq(s.Len(x), IntConst(2)))
	res := s.Solve()
	if res.Status != StatusUnsat {
		t.Fatalf("got %v, want unsat", res.Status)
	}
}

func TestDisjunction(t *testing.T) {
	s := NewSolver()
	x := s.StrVar("x")
	s.Require(Or(
		Eq(T(V(x)), T(C("foo"))),
		Eq(T(V(x)), T(C("bar"))),
	))
	s.Require(MustInRegex(x, "b.*"))
	res := s.Solve()
	if res.Status != StatusSat {
		t.Fatalf("got %v, want sat", res.Status)
	}
	if res.StrValue(x) != "bar" {
		t.Fatalf("x = %q", res.StrValue(x))
	}
}

func TestArithmeticOrIsOneBranch(t *testing.T) {
	s := NewSolver()
	x := s.StrVar("x")
	n := s.IntVar("n")
	s.Require(ToNum(n, x))
	s.Require(Or(IntEq(IntVal(n), IntConst(7)), IntEq(IntVal(n), IntConst(12))))
	s.Require(LenEq(s.Len(x), IntConst(2)))
	res := s.Solve()
	if res.Status != StatusSat {
		t.Fatalf("got %v, want sat", res.Status)
	}
	if got := res.StrValue(x); got != "07" && got != "12" {
		t.Fatalf("x = %q, want 07 or 12", got)
	}
	// The disjunction is one arithmetic formula: no case split, one
	// over-approximation probe.
	if got := res.Stats().Counter("branches"); got != 1 {
		t.Errorf("branches = %d, want 1", got)
	}
	if got := res.Stats().Child("overapprox").Counter("calls"); got != 1 {
		t.Errorf("overapprox/calls = %d, want 1", got)
	}
}

func TestNotInRegex(t *testing.T) {
	s := NewSolver()
	x := s.StrVar("x")
	c, err := NotInRegex(x, "a*")
	if err != nil {
		t.Fatal(err)
	}
	s.Require(c)
	s.Require(LenEq(s.Len(x), IntConst(2)))
	res := s.Solve()
	if res.Status != StatusSat {
		t.Fatalf("got %v, want sat", res.Status)
	}
	got := res.StrValue(x)
	if got == "aa" || len(got) != 2 {
		t.Fatalf("x = %q", got)
	}
}

func TestTimeoutOption(t *testing.T) {
	s := NewSolver()
	s.SetTimeout(time.Second)
	x := s.StrVar("x")
	y := s.StrVar("y")
	z := s.StrVar("z")
	s.Require(Eq(T(V(x), V(y)), T(V(y), V(z))))
	s.Require(Neq(T(V(x), V(z)), T(V(z), V(x))))
	start := time.Now()
	_ = s.Solve()
	if time.Since(start) > 20*time.Second {
		t.Fatal("timeout not respected")
	}
}
