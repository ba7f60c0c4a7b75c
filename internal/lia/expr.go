package lia

import (
	"math/big"
	"sort"
	"strings"
)

// LinExpr is a sparse linear expression sum(coeff_i * var_i) + k with
// arbitrary-precision integer coefficients. The numeric PFA flattening
// produces coefficients up to 10^m, which overflow int64 for large m,
// hence big.Int throughout.
//
// LinExpr values are mutable; the arithmetic methods modify and return
// the receiver so expressions can be built fluently. Use Clone when a
// value must be preserved.
type LinExpr struct {
	terms map[Var]*big.Int
	k     *big.Int
}

// NewLin returns the zero expression.
func NewLin() *LinExpr {
	return &LinExpr{terms: make(map[Var]*big.Int), k: new(big.Int)}
}

// Const returns the constant expression k.
func Const(k int64) *LinExpr {
	e := NewLin()
	e.k.SetInt64(k)
	return e
}

// ConstBig returns the constant expression k.
func ConstBig(k *big.Int) *LinExpr {
	e := NewLin()
	e.k.Set(k)
	return e
}

// V returns the expression consisting of the single variable v.
func V(v Var) *LinExpr {
	e := NewLin()
	e.terms[v] = big.NewInt(1)
	return e
}

// Clone returns a deep copy of e.
func (e *LinExpr) Clone() *LinExpr {
	c := &LinExpr{terms: make(map[Var]*big.Int, len(e.terms)), k: new(big.Int).Set(e.k)}
	for v, a := range e.terms {
		c.terms[v] = new(big.Int).Set(a)
	}
	return c
}

// AddTerm adds coeff*v to e and returns e.
func (e *LinExpr) AddTerm(v Var, coeff *big.Int) *LinExpr {
	if coeff.Sign() == 0 {
		return e
	}
	if cur, ok := e.terms[v]; ok {
		cur.Add(cur, coeff)
		if cur.Sign() == 0 {
			delete(e.terms, v)
		}
	} else {
		e.terms[v] = new(big.Int).Set(coeff)
	}
	return e
}

// AddTermInt adds coeff*v to e and returns e.
func (e *LinExpr) AddTermInt(v Var, coeff int64) *LinExpr {
	return e.AddTerm(v, big.NewInt(coeff))
}

// AddConst adds k to the constant part and returns e.
func (e *LinExpr) AddConst(k int64) *LinExpr {
	e.k.Add(e.k, big.NewInt(k))
	return e
}

// AddConstBig adds k to the constant part and returns e.
func (e *LinExpr) AddConstBig(k *big.Int) *LinExpr {
	e.k.Add(e.k, k)
	return e
}

// Add adds o to e (term-wise) and returns e.
func (e *LinExpr) Add(o *LinExpr) *LinExpr {
	for v, a := range o.terms {
		e.AddTerm(v, a)
	}
	e.k.Add(e.k, o.k)
	return e
}

// Sub subtracts o from e and returns e.
func (e *LinExpr) Sub(o *LinExpr) *LinExpr {
	neg := new(big.Int)
	for v, a := range o.terms {
		e.AddTerm(v, neg.Neg(a))
	}
	e.k.Sub(e.k, o.k)
	return e
}

// Scale multiplies e by c and returns e.
func (e *LinExpr) Scale(c *big.Int) *LinExpr {
	if c.Sign() == 0 {
		e.terms = make(map[Var]*big.Int)
		e.k.SetInt64(0)
		return e
	}
	for v, a := range e.terms {
		a.Mul(a, c)
		_ = v
	}
	e.k.Mul(e.k, c)
	return e
}

// ScaleInt multiplies e by c and returns e.
func (e *LinExpr) ScaleInt(c int64) *LinExpr {
	return e.Scale(big.NewInt(c))
}

// Neg negates e in place and returns e.
func (e *LinExpr) Neg() *LinExpr {
	for _, a := range e.terms {
		a.Neg(a)
	}
	e.k.Neg(e.k)
	return e
}

// IsConst reports whether e has no variable terms, and if so its value.
func (e *LinExpr) IsConst() (*big.Int, bool) {
	if len(e.terms) == 0 {
		return e.k, true
	}
	return nil, false
}

// ConstPart returns the constant part of e.
func (e *LinExpr) ConstPart() *big.Int { return e.k }

// Coeff returns the coefficient of v (zero if absent). The returned
// value must not be modified.
func (e *LinExpr) Coeff(v Var) *big.Int {
	if a, ok := e.terms[v]; ok {
		return a
	}
	return bigZero
}

// Vars returns the variables with nonzero coefficients, in ascending order.
func (e *LinExpr) Vars() []Var {
	vs := make([]Var, 0, len(e.terms))
	for v := range e.terms {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// NumTerms reports the number of variable terms.
func (e *LinExpr) NumTerms() int { return len(e.terms) }

// Eval evaluates e under the model, treating absent variables as zero.
func (e *LinExpr) Eval(m Model) *big.Int {
	res := new(big.Int).Set(e.k)
	tmp := new(big.Int)
	for v, a := range e.terms {
		val := m.Value(v)
		res.Add(res, tmp.Mul(a, val))
	}
	return res
}

var bigZero = new(big.Int)

// String renders e using the pool's variable names.
func (e *LinExpr) String(p *Pool) string {
	var b strings.Builder
	first := true
	for _, v := range e.Vars() {
		a := e.terms[v]
		if first {
			first = false
		} else if a.Sign() >= 0 {
			b.WriteString(" + ")
		} else {
			b.WriteString(" ")
		}
		if a.Cmp(bigOne) == 0 {
			b.WriteString(p.Name(v))
		} else {
			b.WriteString(a.String())
			b.WriteByte('*')
			b.WriteString(p.Name(v))
		}
	}
	if first {
		return e.k.String()
	}
	if e.k.Sign() > 0 {
		b.WriteString(" + ")
		b.WriteString(e.k.String())
	} else if e.k.Sign() < 0 {
		b.WriteString(" ")
		b.WriteString(e.k.String())
	}
	return b.String()
}

var bigOne = big.NewInt(1)
