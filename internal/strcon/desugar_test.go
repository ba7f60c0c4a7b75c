package strcon

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/lia"
)

// shape renders a constraint tree with its arithmetic formulas, so two
// prepared problems can be compared structurally.
func shape(p *Problem, c Constraint) string {
	join := func(op string, args []Constraint) string {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = shape(p, a)
		}
		return op + "(" + strings.Join(parts, ", ") + ")"
	}
	switch t := c.(type) {
	case *Arith:
		return "Arith[" + lia.String(t.F, p.Lia) + "]"
	case *AndCon:
		return join("And", t.Args)
	case *OrCon:
		return join("Or", t.Args)
	}
	return fmt.Sprintf("%T%v", c, c)
}

func TestPrepareFoldsArithmeticConnectives(t *testing.T) {
	p := NewProblem()
	a := p.NewIntVar("a")
	b := p.NewIntVar("b")
	// (and (or a=1 a=2) (or b=1 (and b>=5 b<=6)))
	p.Add(&AndCon{Args: []Constraint{
		&OrCon{Args: []Constraint{
			&Arith{F: lia.EqConst(a, 1)},
			&Arith{F: lia.EqConst(a, 2)},
		}},
		&OrCon{Args: []Constraint{
			&Arith{F: lia.EqConst(b, 1)},
			&AndCon{Args: []Constraint{
				&Arith{F: lia.Ge(lia.V(b), lia.Const(5))},
				&Arith{F: lia.Le(lia.V(b), lia.Const(6))},
			}},
		}},
	}})
	p.Prepare()
	if len(p.Constraints) != 1 {
		t.Fatalf("got %d constraints, want 1", len(p.Constraints))
	}
	ar, ok := p.Constraints[0].(*Arith)
	if !ok {
		t.Fatalf("got %s, want one Arith", shape(p, p.Constraints[0]))
	}
	and, ok := ar.F.(*lia.NAry)
	if !ok || and.Op != lia.OpAnd || len(and.Args) != 2 {
		t.Fatalf("got %s, want a conjunction of two disjunctions", lia.String(ar.F, p.Lia))
	}
	for _, d := range and.Args {
		if or, ok := d.(*lia.NAry); !ok || or.Op != lia.OpOr || len(or.Args) != 2 {
			t.Errorf("conjunct %s is not a two-way disjunction", lia.String(d, p.Lia))
		}
	}
}

func TestPrepareKeepsStringDisjuncts(t *testing.T) {
	p := NewProblem()
	x := p.NewStrVar("x")
	n := p.NewIntVar("n")
	eq := &WordEq{L: T(TV(x)), R: T(TC("a"))}
	// (or (and n>=0 n<=9) x="a" (and x="a" (or n=1 n=2)))
	p.Add(&OrCon{Args: []Constraint{
		&AndCon{Args: []Constraint{
			&Arith{F: lia.Ge(lia.V(n), lia.Const(0))},
			&Arith{F: lia.Le(lia.V(n), lia.Const(9))},
		}},
		eq,
		&AndCon{Args: []Constraint{
			eq,
			&OrCon{Args: []Constraint{
				&Arith{F: lia.EqConst(n, 1)},
				&Arith{F: lia.EqConst(n, 2)},
			}},
		}},
	}})
	p.Prepare()
	or, ok := p.Constraints[0].(*OrCon)
	if !ok || len(or.Args) != 3 {
		t.Fatalf("got %s, want a three-way OrCon", shape(p, p.Constraints[0]))
	}
	if _, ok := or.Args[0].(*Arith); !ok {
		t.Errorf("pure-arithmetic disjunct not folded: %s", shape(p, or.Args[0]))
	}
	if _, ok := or.Args[1].(*WordEq); !ok {
		t.Errorf("string disjunct lost: %s", shape(p, or.Args[1]))
	}
	and, ok := or.Args[2].(*AndCon)
	if !ok || len(and.Args) != 2 {
		t.Fatalf("mixed conjunct not kept: %s", shape(p, or.Args[2]))
	}
	if _, ok := and.Args[0].(*WordEq); !ok {
		t.Errorf("string conjunct lost: %s", shape(p, and.Args[0]))
	}
	if _, ok := and.Args[1].(*Arith); !ok {
		t.Errorf("nested pure-arithmetic OrCon not folded: %s", shape(p, and.Args[1]))
	}
}

func TestPrepareKeepsLengthConnectives(t *testing.T) {
	p := NewProblem()
	x := p.NewStrVar("x")
	n := p.NewIntVar("n")
	lenX := p.LenVar(x)
	// (or |x|=9 |x|=11) and (or (and |x|=12 n=1) n=2): each branch's
	// length pin picks its restrictions, so both stay case splits.
	p.Add(
		&OrCon{Args: []Constraint{&Arith{F: lia.EqConst(lenX, 9)}, &Arith{F: lia.EqConst(lenX, 11)}}},
		&OrCon{Args: []Constraint{
			&AndCon{Args: []Constraint{&Arith{F: lia.EqConst(lenX, 12)}, &Arith{F: lia.EqConst(n, 1)}}},
			&Arith{F: lia.EqConst(n, 2)},
		}},
	)
	p.Prepare()
	for i, c := range p.Constraints {
		if _, ok := c.(*OrCon); !ok {
			t.Errorf("constraint %d: got %s, want an OrCon", i, shape(p, c))
		}
	}
	if or, ok := p.Constraints[1].(*OrCon); ok {
		if _, ok := or.Args[0].(*AndCon); !ok {
			t.Errorf("conjunction over a length folded: %s", shape(p, or.Args[0]))
		}
	}
}

func TestPrepareFoldsEmptyConnectives(t *testing.T) {
	p := NewProblem()
	p.Add(&AndCon{}, &OrCon{})
	p.Prepare()
	want := []lia.Formula{lia.True, lia.False}
	for i, c := range p.Constraints {
		ar, ok := c.(*Arith)
		if !ok || ar.F != want[i] {
			t.Errorf("constraint %d: got %s, want Arith[%v]", i, shape(p, c), want[i])
		}
	}
}

func TestPrepareTwiceSameShape(t *testing.T) {
	p := NewProblem()
	x := p.NewStrVar("x")
	y := p.NewStrVar("y")
	n := p.NewIntVar("n")
	p.Add(
		&WordNeq{L: T(TV(x)), R: T(TC("ab"))},
		&WordEq{L: T(TV(x), TV(x)), R: T(TV(y))},
		&OrCon{Args: []Constraint{
			&AndCon{Args: []Constraint{
				&Arith{F: lia.Ge(lia.V(n), lia.Const(0))},
				&Arith{F: lia.Eq(lia.V(p.LenVar(x)), lia.V(n))},
			}},
			&Arith{F: lia.EqConst(n, -1)},
		}},
		&AndCon{Args: []Constraint{
			&OrCon{Args: []Constraint{&Arith{F: lia.EqConst(n, 3)}, &WordEq{L: T(TV(y)), R: T()}}},
			&Arith{F: lia.Le(lia.V(n), lia.Const(7))},
		}},
	)
	render := func() string {
		parts := make([]string, len(p.Constraints))
		for i, c := range p.Constraints {
			parts[i] = shape(p, c)
		}
		return strings.Join(parts, "\n")
	}
	p.Prepare()
	once, vars := render(), p.NumStrVars()
	p.Prepare()
	if twice := render(); twice != once {
		t.Errorf("second Prepare changed the problem:\nonce:\n%s\ntwice:\n%s", once, twice)
	}
	if p.NumStrVars() != vars {
		t.Errorf("second Prepare added string variables: %d -> %d", vars, p.NumStrVars())
	}
}

func TestPrepareFoldKeepsEval(t *testing.T) {
	p := NewProblem()
	x := p.NewStrVar("x")
	a := p.NewIntVar("a")
	b := p.NewIntVar("b")
	lenX := lia.V(p.LenVar(x))
	p.Add(
		// (or (and a>=1 b=2a) (and a<=0 b=-a))
		&OrCon{Args: []Constraint{
			&AndCon{Args: []Constraint{
				&Arith{F: lia.Ge(lia.V(a), lia.Const(1))},
				&Arith{F: lia.Eq(lia.V(b), lia.V(a).ScaleInt(2))},
			}},
			&AndCon{Args: []Constraint{
				&Arith{F: lia.Le(lia.V(a), lia.Const(0))},
				&Arith{F: lia.Eq(lia.V(b), lia.V(a).Neg())},
			}},
		}},
		// (or |x|=a (and x="" (or b=0 b=2)))
		&OrCon{Args: []Constraint{
			&Arith{F: lia.Eq(lenX, lia.V(a))},
			&AndCon{Args: []Constraint{
				&WordEq{L: T(TV(x)), R: T()},
				&OrCon{Args: []Constraint{&Arith{F: lia.EqConst(b, 0)}, &Arith{F: lia.EqConst(b, 2)}}},
			}},
		}},
	)
	orig := append([]Constraint(nil), p.Constraints...)
	prepared := p.WithConstraints(orig)
	prepared.Prepare()
	if prepared.NumStrVars() != p.NumStrVars() {
		t.Fatalf("Prepare added string variables to a problem with nothing to desugar")
	}
	sats := 0
	for _, s := range []string{"", "a", "ab"} {
		for av := int64(-2); av <= 2; av++ {
			for bv := int64(-4); bv <= 4; bv++ {
				asg := &Assignment{
					Str: map[Var]string{x: s},
					Int: lia.Model{a: big.NewInt(av), b: big.NewInt(bv)},
				}
				want := p.Eval(asg)
				if got := prepared.Eval(asg); got != want {
					t.Errorf("x=%q a=%d b=%d: prepared Eval %v, original %v", s, av, bv, got, want)
				}
				if want {
					sats++
				}
			}
		}
	}
	if sats == 0 {
		t.Fatal("the grid holds no model, so it checks nothing")
	}
}
