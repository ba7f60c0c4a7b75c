package lia

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/engine"
)

func mustSat(t *testing.T, f Formula) Model {
	t.Helper()
	res, m := Solve(f, nil)
	if res != ResSat {
		t.Fatalf("Solve = %v, want sat", res)
	}
	if !Eval(f, m) {
		t.Fatalf("model does not satisfy formula")
	}
	return m
}

func mustUnsat(t *testing.T, f Formula) {
	t.Helper()
	res, _ := Solve(f, nil)
	if res != ResUnsat {
		t.Fatalf("Solve = %v, want unsat", res)
	}
}

func TestTrivial(t *testing.T) {
	mustSat(t, True)
	mustUnsat(t, False)
}

func TestSingleAtom(t *testing.T) {
	p := NewPool()
	x := p.Fresh("x")
	mustSat(t, Ge(V(x), Const(5)))
	mustUnsat(t, And(Ge(V(x), Const(5)), Le(V(x), Const(4))))
}

func TestEquationSystem(t *testing.T) {
	p := NewPool()
	x, y := p.Fresh("x"), p.Fresh("y")
	// x + y = 10, x - y = 4 -> x=7, y=3
	f := And(
		Eq(V(x).Add(V(y)), Const(10)),
		Eq(V(x).Sub(V(y)), Const(4)),
	)
	m := mustSat(t, f)
	if m.Int64(x) != 7 || m.Int64(y) != 3 {
		t.Fatalf("got x=%v y=%v, want 7,3", m.Value(x), m.Value(y))
	}
}

func TestIntegrality(t *testing.T) {
	p := NewPool()
	x := p.Fresh("x")
	// 2x = 7 has no integer solution.
	mustUnsat(t, Eq(V(x).ScaleInt(2), Const(7)))
	// 2x+4y = 6 has solutions; 2x+4y = 7 does not.
	y := p.Fresh("y")
	mustSat(t, Eq(V(x).ScaleInt(2).Add(V(y).ScaleInt(4)), Const(6)))
	mustUnsat(t, Eq(V(x).ScaleInt(2).Add(V(y).ScaleInt(4)), Const(7)))
}

func TestDisjunction(t *testing.T) {
	p := NewPool()
	x := p.Fresh("x")
	f := And(
		Or(Eq(V(x), Const(3)), Eq(V(x), Const(8))),
		Ge(V(x), Const(5)),
	)
	m := mustSat(t, f)
	if m.Int64(x) != 8 {
		t.Fatalf("x = %v, want 8", m.Value(x))
	}
}

func TestNotAndNe(t *testing.T) {
	p := NewPool()
	x := p.Fresh("x")
	f := And(
		Ge(V(x), Const(0)),
		Le(V(x), Const(2)),
		Ne(V(x), Const(0)),
		Ne(V(x), Const(1)),
		Ne(V(x), Const(2)),
	)
	mustUnsat(t, f)

	g := And(
		Ge(V(x), Const(0)),
		Le(V(x), Const(2)),
		Negate(Eq(V(x), Const(0))),
		Negate(Eq(V(x), Const(1))),
	)
	m := mustSat(t, g)
	if m.Int64(x) != 2 {
		t.Fatalf("x = %v, want 2", m.Value(x))
	}
}

func TestBigCoefficients(t *testing.T) {
	p := NewPool()
	x, n := p.Fresh("x"), p.Fresh("n")
	// n = 10^25 * x, n >= 10^25, x <= 1 -> x = 1.
	pow := new(big.Int).Exp(big.NewInt(10), big.NewInt(25), nil)
	f := And(
		Eq(V(n), V(x).Scale(pow)),
		Ge(V(n), ConstBig(pow)),
		Le(V(x), Const(1)),
	)
	m := mustSat(t, f)
	if m.Value(x).Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("x = %v, want 1", m.Value(x))
	}
	if m.Value(n).Cmp(pow) != 0 {
		t.Fatalf("n = %v, want 10^25", m.Value(n))
	}
}

func TestImpliesIff(t *testing.T) {
	p := NewPool()
	x, y := p.Fresh("x"), p.Fresh("y")
	f := And(
		Implies(Ge(V(x), Const(1)), Ge(V(y), Const(10))),
		Ge(V(x), Const(5)),
		Le(V(y), Const(9)),
	)
	mustUnsat(t, f)

	g := And(
		Iff(Ge(V(x), Const(1)), Ge(V(y), Const(10))),
		Le(V(x), Const(0)),
		Ge(V(y), Const(10)),
	)
	mustUnsat(t, g)
}

func TestNestedBooleans(t *testing.T) {
	p := NewPool()
	x, y, z := p.Fresh("x"), p.Fresh("y"), p.Fresh("z")
	f := And(
		Or(
			And(Eq(V(x), Const(1)), Eq(V(y), Const(2))),
			And(Eq(V(x), Const(3)), Eq(V(y), Const(4))),
		),
		Eq(V(z), V(x).Add(V(y))),
		Ge(V(z), Const(6)),
	)
	m := mustSat(t, f)
	if m.Int64(x) != 3 || m.Int64(y) != 4 || m.Int64(z) != 7 {
		t.Fatalf("got x=%v y=%v z=%v", m.Value(x), m.Value(y), m.Value(z))
	}
}

func TestUnboundedDirections(t *testing.T) {
	p := NewPool()
	x, y := p.Fresh("x"), p.Fresh("y")
	// x can be arbitrarily negative; formula still sat.
	mustSat(t, And(Le(V(x), Const(-1000)), Ge(V(y).Sub(V(x)), Const(2000))))
}

// draws feeds randBoxFormula its choices: intn returns a value in
// [0, n).
type draws interface{ intn(n int) int }

// byteDraws draws from fuzz input: each draw is the next byte modulo n,
// and 0 once the input is spent.
type byteDraws []byte

func (b *byteDraws) intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	x := int((*b)[0]) % n
	*b = (*b)[1:]
	return x
}

// recordedDraws draws from rng and records every draw as one byte, so
// that byteDraws over the record replays the same formula.
type recordedDraws struct {
	rng *rand.Rand
	out []byte
}

func (r *recordedDraws) intn(n int) int {
	x := r.rng.Intn(n)
	r.out = append(r.out, byte(x))
	return x
}

// boxCombs are the coefficient vectors of randBoxFormula's atoms when
// it does not draw them freely, so that one combination carries
// several bounds in both directions.
var boxCombs = [3][3]int64{{1, 0, 0}, {1, -1, 0}, {2, 1, -1}}

// randBoxFormula draws a boolean combination, up to depth levels deep,
// of atoms over the three variables vars: each atom takes coefficients
// in [-2, 2] when free is set and one of boxCombs otherwise, a constant
// in [-4, 4] and one of the six relations.
func randBoxFormula(d draws, vars []Var, free bool, depth int) Formula {
	if depth == 0 || d.intn(3) == 0 {
		e := NewLin()
		if free {
			for _, v := range vars {
				e.AddTermInt(v, int64(d.intn(5)-2))
			}
		} else {
			for i, c := range boxCombs[d.intn(len(boxCombs))] {
				e.AddTermInt(vars[i], c)
			}
		}
		e.AddConst(int64(d.intn(9) - 4))
		ops := []Rel{LE, LT, GE, GT, EQ, NE}
		return Cmp(e, ops[d.intn(len(ops))], Const(0))
	}
	args := make([]Formula, 2+d.intn(2))
	for i := range args {
		args[i] = randBoxFormula(d, vars, free, depth-1)
	}
	switch d.intn(3) {
	case 0:
		return And(args...)
	case 1:
		return Or(args...)
	default:
		return Negate(And(args...))
	}
}

// FuzzSolveAgainstBruteForce compares Solve against exhaustive search
// over the box [-3, 3]^3, on the formula randBoxFormula draws from the
// input. An unsat answer must leave no point of the box satisfying the
// formula, and a sat answer's model must satisfy it. The seed corpus
// is 150 formulas with free coefficients drawn from math/rand seed 11,
// then 150 over boxCombs from the same stream.
func FuzzSolveAgainstBruteForce(f *testing.F) {
	vars := []Var{0, 1, 2} // the draws do not depend on the variables
	rng := rand.New(rand.NewSource(11))
	for _, free := range []bool{true, false} {
		for i := 0; i < 150; i++ {
			rec := &recordedDraws{rng: rng}
			randBoxFormula(rec, vars, free, 2)
			f.Add(free, rec.out)
		}
	}
	f.Fuzz(func(t *testing.T, free bool, input []byte) {
		p := NewPool()
		vars := []Var{p.Fresh("a"), p.Fresh("b"), p.Fresh("c")}
		d := byteDraws(input)
		box := []Formula{randBoxFormula(&d, vars, free, 2)}
		for _, v := range vars {
			box = append(box, Ge(V(v), Const(-3)), Le(V(v), Const(3)))
		}
		g := And(box...)

		res, model := Solve(g, nil)
		switch res {
		case ResUnknown:
			t.Fatalf("unknown on %s", String(g, p))
		case ResSat:
			if !Eval(g, model) {
				t.Fatalf("model %v does not satisfy %s", model, String(g, p))
			}
		case ResUnsat:
			m := Model{}
			for a := int64(-3); a <= 3; a++ {
				for b := int64(-3); b <= 3; b++ {
					for c := int64(-3); c <= 3; c++ {
						m[vars[0]], m[vars[1]], m[vars[2]] = big.NewInt(a), big.NewInt(b), big.NewInt(c)
						if Eval(g, m) {
							t.Fatalf("unsat, but a=%d b=%d c=%d satisfies %s", a, b, c, String(g, p))
						}
					}
				}
			}
		}
	})
}

func TestEvalAndString(t *testing.T) {
	p := NewPool()
	x := p.Fresh("x")
	f := And(Ge(V(x), Const(1)), Negate(Eq(V(x), Const(2))))
	m := Model{x: big.NewInt(3)}
	if !Eval(f, m) {
		t.Errorf("Eval = false, want true")
	}
	m[x] = big.NewInt(2)
	if Eval(f, m) {
		t.Errorf("Eval = true, want false")
	}
	if s := String(f, p); s == "" {
		t.Errorf("String returned empty")
	}
}

func TestLinExprOps(t *testing.T) {
	p := NewPool()
	x, y := p.Fresh("x"), p.Fresh("y")
	e := V(x).ScaleInt(3).Add(V(y)).AddConst(5) // 3x + y + 5
	m := Model{x: big.NewInt(2), y: big.NewInt(-1)}
	if got := e.Eval(m); got.Int64() != 10 {
		t.Fatalf("eval = %v, want 10", got)
	}
	e2 := e.Clone().Sub(V(y)) // 3x + 5
	if got := e2.Eval(m); got.Int64() != 11 {
		t.Fatalf("eval2 = %v, want 11", got)
	}
	if e2.NumTerms() != 1 {
		t.Fatalf("NumTerms = %d, want 1", e2.NumTerms())
	}
	// Cancelling terms.
	e3 := V(x).Sub(V(x))
	if k, ok := e3.IsConst(); !ok || k.Sign() != 0 {
		t.Fatalf("x - x should be constant 0")
	}
}

func TestCanonAtomSharing(t *testing.T) {
	p := NewPool()
	x, y := p.Fresh("x"), p.Fresh("y")
	// 2x+2y <= 4 and x+y >= 5 must share the same combination key.
	c1, b1, up1 := canonAtom(V(x).ScaleInt(2).Add(V(y).ScaleInt(2)).AddConst(-4))
	c2, b2, up2 := canonAtom(V(x).Neg().Sub(V(y)).AddConst(5))
	if c1.key != c2.key {
		t.Fatalf("keys differ: %q vs %q", c1.key, c2.key)
	}
	if !up1 || b1.Int64() != 2 {
		t.Fatalf("atom1: upper=%v bound=%v, want upper bound 2", up1, b1)
	}
	if up2 || b2.Int64() != 5 {
		t.Fatalf("atom2: upper=%v bound=%v, want lower bound 5", up2, b2)
	}

	// x >= 4 is the complement of x <= 3: both encode to one SAT
	// variable with opposite literals, and a formula holding both
	// interns one atom.
	d := NewSession(nil).engine()
	ge := d.encode(nnf(Ge(V(x), Const(4)), false), 0)
	le := d.encode(nnf(Le(V(x), Const(3)), false), 0)
	if ge != le.Flip() {
		t.Fatalf("x >= 4 encodes to literal %d, x <= 3 to %d; want opposite literals of one variable", ge, le)
	}
	ec := engine.Background()
	if res, _ := Solve(Or(Ge(V(x), Const(4)), Le(V(x), Const(3))), &Options{Ctx: ec}); res != ResSat {
		t.Fatalf("Solve = %v, want sat", res)
	}
	if n := ec.Stats().Snapshot().Children["lia"].Counters["atoms"]; n != 1 {
		t.Fatalf("lia/atoms = %d, want 1", n)
	}
}

// TestBoundChainPropagates refutes a formula whose bounds on x are
// reached through disjunctions, out of presolve's reach: y >= 1 falsifies
// y <= 0, which leaves x <= 2 and x >= 5. The clause linking x <= 2 to
// x <= 4 refutes that by unit propagation, so the simplex reports no
// conflict.
func TestBoundChainPropagates(t *testing.T) {
	p := NewPool()
	x, y := p.Fresh("x"), p.Fresh("y")
	f := And(
		Or(Le(V(x), Const(2)), Le(V(y), Const(0))),
		Or(Ge(V(x), Const(5)), Le(V(y), Const(0))),
		Ge(V(y), Const(1)),
	)
	ec := engine.Background()
	if res, _ := Solve(f, &Options{Ctx: ec}); res != ResUnsat {
		t.Fatalf("Solve = %v, want unsat", res)
	}
	if n := ec.Stats().Snapshot().Children["lia"].Counters["theory.conflicts"]; n != 0 {
		t.Fatalf("lia/theory.conflicts = %d, want 0", n)
	}
}

func TestDeadline(t *testing.T) {
	// A formula that takes some search: magic series-like constraints.
	p := NewPool()
	n := 9
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = p.Fresh("")
	}
	var fs []Formula
	sum := NewLin()
	for i, v := range vs {
		fs = append(fs, Ge(V(v), Const(0)), Le(V(v), Const(int64(n))))
		sum.AddTermInt(v, int64(i+1))
	}
	fs = append(fs, Eq(sum, Const(int64(n*n))))
	f := And(fs...)
	res, m := Solve(f, nil)
	if res != ResSat {
		t.Fatalf("got %v", res)
	}
	if !Eval(f, m) {
		t.Fatalf("bad model")
	}
}
