// Package strcon defines the string-constraint language of the paper
// (§3): word equalities and disequalities over word terms, regular
// membership constraints, linear integer constraints over integer
// variables and string lengths, and the string-number conversion
// constraints toNum/toStr. It also provides the concrete evaluator used
// as the result validator (§9) and the desugarings (charAt, substr,
// disequalities, duplicate-occurrence elimination) that the decision
// procedure assumes.
package strcon

import (
	"fmt"
	"math/big"

	"repro/internal/automata"
	"repro/internal/lia"
)

// Var identifies a string variable of a Problem.
type Var int

// Item is one element of a word term: a string variable or a constant.
type Item struct {
	IsVar bool
	V     Var
	Const string
}

// Term is a word term: a concatenation of variables and constants.
type Term []Item

// TV returns a term item for a variable.
func TV(v Var) Item { return Item{IsVar: true, V: v} }

// TC returns a term item for a constant string.
func TC(s string) Item { return Item{Const: s} }

// T builds a term from items.
func T(items ...Item) Term { return Term(items) }

// Constraint is an atomic or composite string constraint. Concrete
// types: *WordEq, *WordNeq, *Membership, *Arith, *ToNum, *ToStr, *Ord,
// *AndCon, *OrCon.
type Constraint interface {
	isConstraint()
}

// WordEq is the equality of two word terms.
type WordEq struct {
	L, R Term
}

func (*WordEq) isConstraint() {}

// WordNeq is the disequality of two word terms. The decision procedure
// desugars it (Prepare) into equalities, length and character
// constraints in the standard way.
type WordNeq struct {
	L, R Term
}

func (*WordNeq) isConstraint() {}

// Membership constrains a variable to (not) belong to a regular
// language. Pattern is informational (printing); the automaton is
// authoritative.
type Membership struct {
	X       Var
	A       *automata.NFA
	Neg     bool
	Pattern string

	complemented *automata.NFA // cache for flattening
}

func (*Membership) isConstraint() {}

// Automaton returns the effective automaton: A, or its complement when
// the constraint is negated (computed once and cached).
func (m *Membership) Automaton() *automata.NFA {
	if !m.Neg {
		return m.A
	}
	if m.complemented == nil {
		m.complemented = m.A.Complement().Trim()
	}
	return m.complemented
}

// Arith is a linear integer constraint over the problem's integer
// variables and string-length variables (see Problem.LenVar).
type Arith struct {
	F lia.Formula
}

func (*Arith) isConstraint() {}

// ToNum is the constraint N = toNum(X): the decimal value of X when X
// is a nonempty digit string, and -1 otherwise.
type ToNum struct {
	N lia.Var
	X Var
}

func (*ToNum) isConstraint() {}

// ToStr is the constraint X = toStr(N): X is the canonical decimal
// numeral of N when N >= 0, and the empty string when N < 0 (SMT-LIB
// str.from_int semantics).
type ToStr struct {
	N lia.Var
	X Var
}

func (*ToStr) isConstraint() {}

// Ord is the constraint |X| = 1 and N = code(X[0]); it is used by the
// disequality desugaring and by character-level reasoning.
type Ord struct {
	N lia.Var
	X Var
}

func (*Ord) isConstraint() {}

// AndCon is a conjunction of constraints.
type AndCon struct {
	Args []Constraint
}

func (*AndCon) isConstraint() {}

// OrCon is a disjunction of constraints. The flattening translates it
// to a disjunction of flattenings, so it is fully supported by the
// under-approximation.
type OrCon struct {
	Args []Constraint
}

func (*OrCon) isConstraint() {}

// Problem is a conjunction of string constraints over a shared pool of
// string variables and a shared lia pool of integer variables (which
// also hosts string-length variables and all auxiliary flattening
// variables).
type Problem struct {
	Lia         *lia.Pool
	Constraints []Constraint

	strNames []string
	lenVars  map[Var]lia.Var
	IntVars  []lia.Var // user-declared integer variables, for models
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{Lia: lia.NewPool(), lenVars: make(map[Var]lia.Var)}
}

// NewStrVar declares a string variable.
func (p *Problem) NewStrVar(name string) Var {
	v := Var(len(p.strNames))
	if name == "" {
		name = fmt.Sprintf("s%d", v)
	}
	p.strNames = append(p.strNames, name)
	return v
}

// NumStrVars reports how many string variables exist.
func (p *Problem) NumStrVars() int { return len(p.strNames) }

// StrName returns the name of a string variable.
func (p *Problem) StrName(v Var) string {
	if int(v) < 0 || int(v) >= len(p.strNames) {
		return fmt.Sprintf("?s%d", v)
	}
	return p.strNames[v]
}

// NewIntVar declares a user-visible integer variable.
func (p *Problem) NewIntVar(name string) lia.Var {
	v := p.Lia.Fresh(name)
	p.IntVars = append(p.IntVars, v)
	return v
}

// LenVar returns the lia variable standing for |x|, allocating it on
// first use.
func (p *Problem) LenVar(x Var) lia.Var {
	if v, ok := p.lenVars[x]; ok {
		return v
	}
	v := p.Lia.Fresh("len_" + p.StrName(x))
	p.lenVars[x] = v
	return v
}

// LenVars returns the allocated length variables (for flattening).
func (p *Problem) LenVars() map[Var]lia.Var { return p.lenVars }

// Add appends constraints to the problem.
func (p *Problem) Add(cs ...Constraint) {
	p.Constraints = append(p.Constraints, cs...)
}

// WithConstraints returns an independent copy of the problem carrying
// the given constraint slice. The clone owns its own lia pool and
// length-variable map, so flattening one clone never perturbs variable
// numbering in another — the property the refinement loop's per-branch
// state and the portfolio's racing attempts rely on to stay
// deterministic. Constraint values themselves are shared (they are never mutated after
// Prepare).
func (p *Problem) WithConstraints(cons []Constraint) *Problem {
	lenVars := make(map[Var]lia.Var, len(p.lenVars))
	for k, v := range p.lenVars {
		lenVars[k] = v
	}
	return &Problem{
		Lia:         p.Lia.Clone(),
		Constraints: cons,
		strNames:    append([]string(nil), p.strNames...),
		lenVars:     lenVars,
		IntVars:     append([]lia.Var(nil), p.IntVars...),
	}
}

// Assignment is a candidate model: values for string variables and an
// integer model covering the problem's integer variables.
type Assignment struct {
	Str map[Var]string
	Int lia.Model
}

// ToNumValue computes toNum(s) per the paper's semantics: the decimal
// value for nonempty digit strings (arbitrary precision), -1 otherwise.
func ToNumValue(s string) *big.Int {
	if len(s) == 0 {
		return big.NewInt(-1)
	}
	v := new(big.Int)
	ten := big.NewInt(10)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return big.NewInt(-1)
		}
		v.Mul(v, ten)
		v.Add(v, big.NewInt(int64(c-'0')))
	}
	return v
}

// ToStrValue computes toStr(n): the canonical decimal numeral for
// n >= 0, and "" for negative n.
func ToStrValue(n *big.Int) string {
	if n.Sign() < 0 {
		return ""
	}
	return n.String()
}
