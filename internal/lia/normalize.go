package lia

import (
	"math/big"
	"strconv"
)

// maxFormulaDepth bounds recursion over formula trees. Formulas this
// deep do not arise from the flattening pipeline (which builds shallow,
// wide conjunctions); hitting the budget indicates adversarial input or
// a construction bug, so the traversals panic rather than overflow the
// goroutine stack.
const maxFormulaDepth = 1 << 14

func checkFormulaDepth(depth int) {
	if depth > maxFormulaDepth {
		// contract: the parser bounds input nesting far below this; only runaway internal construction can reach it.
		panic("lia: formula nesting exceeds depth budget")
	}
}

// nnf converts f to negation normal form in which every atom has the
// form e <= 0 (integers make strict and negated comparisons expressible
// as non-strict ones) and boolean constants are folded. The neg flag
// asks for the normal form of the negation of f.
func nnf(f Formula, neg bool) Formula {
	return nnfAt(f, neg, 0)
}

func nnfAt(f Formula, neg bool, depth int) Formula {
	checkFormulaDepth(depth)
	switch t := f.(type) {
	case Bool:
		return Bool(bool(t) != neg)
	case *Not:
		return nnfAt(t.F, !neg, depth+1)
	case *NAry:
		args := make([]Formula, len(t.Args))
		for i, a := range t.Args {
			args[i] = nnfAt(a, neg, depth+1)
		}
		if (t.Op == OpAnd) != neg {
			return And(args...)
		}
		return Or(args...)
	case *Atom:
		return normAtom(t.E, t.Op, neg)
	}
	// contract: the Formula node set is closed.
	panic("lia: unknown formula node in nnf")
}

// normAtom rewrites (e op 0), negated if neg, into LE-only form.
func normAtom(e *LinExpr, op Rel, neg bool) Formula {
	if neg {
		// not(e op 0) == (e negop 0)
		switch op {
		case LE:
			op = GT
		case LT:
			op = GE
		case GE:
			op = LT
		case GT:
			op = LE
		case EQ:
			op = NE
		case NE:
			op = EQ
		}
	}
	le := func(x *LinExpr) Formula {
		if k, ok := x.IsConst(); ok {
			return Bool(k.Sign() <= 0)
		}
		return &Atom{E: x, Op: LE}
	}
	switch op {
	case LE:
		return le(e.Clone())
	case LT: // e < 0  <=>  e+1 <= 0
		return le(e.Clone().AddConst(1))
	case GE: // e >= 0 <=> -e <= 0
		return le(e.Clone().Neg())
	case GT: // e > 0  <=> -e+1 <= 0
		return le(e.Clone().Neg().AddConst(1))
	case EQ:
		return And(le(e.Clone()), le(e.Clone().Neg()))
	case NE:
		return Or(le(e.Clone().AddConst(1)), le(e.Clone().Neg().AddConst(1)))
	}
	// contract: the relation set is closed.
	panic("lia: unknown relation")
}

// comb is a linear combination in canonical form: GCD-reduced, with a
// positive coefficient on its first variable.
type comb struct {
	key  string           // the coefficients rendered as text; equal combinations share it
	vars []Var            // in increasing order
	def  map[Var]*big.Int // coefficient of each variable
}

// canonAtom canonicalizes the LE atom e <= 0 into a bound on a
// canonical combination: it returns the combination, the integer bound,
// and whether the bound is an upper bound (comb <= bound) or a lower
// bound (comb >= bound).
func canonAtom(e *LinExpr) (c comb, bound *big.Int, upper bool) {
	vars := e.Vars()
	if len(vars) == 0 {
		// contract: normalization folds constant atoms first.
		panic("lia: constant atom reached canonAtom")
	}
	// gcd of |coefficients|
	g := new(big.Int).Abs(e.Coeff(vars[0]))
	for _, v := range vars[1:] {
		g.GCD(nil, nil, g, e.Coeff(v))
	}
	flip := e.Coeff(vars[0]).Sign() < 0
	def := make(map[Var]*big.Int, len(vars))
	var key []byte
	for _, v := range vars {
		a := new(big.Int).Div(e.Coeff(v), g) // exact: g divides every coeff
		if flip {
			a.Neg(a)
		}
		def[v] = a
		key = a.Append(key, 10)
		key = append(key, '*')
		key = strconv.AppendInt(key, int64(v), 10)
		key = append(key, ' ')
	}
	k := e.ConstPart()
	bound = new(big.Int)
	if !flip {
		// g*comb + k <= 0  =>  comb <= floor(-k/g)
		bound.Neg(k)
		floorDiv(bound, bound, g)
		upper = true
	} else {
		// -g*comb + k <= 0 => comb >= ceil(k/g)
		ceilDiv(bound, k, g)
		upper = false
	}
	return comb{key: string(key), vars: vars, def: def}, bound, upper
}

// floorDiv sets z = floor(a/b) for b > 0.
func floorDiv(z, a, b *big.Int) *big.Int {
	q, m := new(big.Int), new(big.Int)
	q.QuoRem(a, b, m)
	if m.Sign() < 0 {
		q.Sub(q, oneInt)
	}
	return z.Set(q)
}

// ceilDiv sets z = ceil(a/b) for b > 0.
func ceilDiv(z, a, b *big.Int) *big.Int {
	q, m := new(big.Int), new(big.Int)
	q.QuoRem(a, b, m)
	if m.Sign() > 0 {
		q.Add(q, oneInt)
	}
	return z.Set(q)
}

var oneInt = big.NewInt(1)
