// Package flatten implements the flat domain restriction of §6 and the
// per-constraint flattenings of §7 and §8: every string variable is
// restricted to the language of a parametric flat automaton, and the
// whole string constraint is translated into one linear-integer-
// arithmetic formula whose models decode (decode_R, Theorem 6.2) into
// models of the string constraint.
package flatten

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/alphabet"
	"repro/internal/engine"
	"repro/internal/lia"
	"repro/internal/pfa"
	"repro/internal/strcon"
)

// Params selects the sizes of the domain-restriction automata: M is the
// chain length of numeric PFAs (the m of §8); Loops and LoopLen are the
// p and q of the standard PFAs used for all other variables (§9).
type Params struct {
	M       int
	Loops   int
	LoopLen int
}

// DefaultParams mirrors the paper's initial strategy (m, p) = (5, 2)
// with a q chosen by static analysis; LoopLen here is the fallback.
var DefaultParams = Params{M: 5, Loops: 2, LoopLen: 2}

// Refine returns the next parameter triple in the paper's refinement
// schedule: m doubles, p and q increase by one.
func (p Params) Refine() Params {
	return Params{M: p.M * 2, Loops: p.Loops + 1, LoopLen: p.LoopLen + 1}
}

// Result carries the flattened formula and the restrictions needed to
// decode a model.
//
// The synchronization formulas use the flow-only Parikh encoding; pass
// OnModel to lia.Options so candidate models are screened for used-edge
// connectivity and refined with cut lemmas.
type Result struct {
	Formula lia.Formula
	R       map[strcon.Var]pfa.Restriction
	Cuts    *pfa.CutRegistry

	prob  *strcon.Problem
	stats *engine.Stats
	ec    *engine.Ctx
}

// OnModel is the lazy-lemma callback for lia.Options.
func (res *Result) OnModel(m lia.Model) lia.Formula {
	return res.Cuts.Lemmas(m)
}

// Flatten builds the under-approximation formula flatten_R(ϕ_in) for
// the given constraints of the (Prepared) problem under the given
// parameters. Variables occurring in string-number constraints receive
// numeric PFAs; all others standard loop-chain PFAs (§9 selection
// strategy). The constraint slice is passed explicitly so case-split
// branches can flatten their own conjunct sets without mutating the
// shared problem; pass prob.Constraints for whole-problem flattening.
// Formula sizes and flattening time are recorded on ec's stats tree.
func Flatten(prob *strcon.Problem, cons []strcon.Constraint, params Params, ec *engine.Ctx) *Result {
	st := ec.Stats().Child("flatten")
	st.Add("calls", 1)
	defer st.Time("time")()
	res := &Result{R: make(map[strcon.Var]pfa.Restriction), Cuts: &pfa.CutRegistry{}, prob: prob,
		stats: ec.Stats().Child("cache"), ec: ec}
	pool := prob.Lia

	numeric := make(map[strcon.Var]bool)
	var scanNumeric func(c strcon.Constraint)
	scanNumeric = func(c strcon.Constraint) {
		switch t := c.(type) {
		case *strcon.ToNum:
			numeric[t.X] = true
		case *strcon.ToStr:
			numeric[t.X] = true
		case *strcon.Ord:
			numeric[t.X] = true
		case *strcon.AndCon:
			for _, a := range t.Args {
				scanNumeric(a)
			}
		case *strcon.OrCon:
			for _, a := range t.Args {
				scanNumeric(a)
			}
		}
	}
	for _, c := range cons {
		scanNumeric(c)
	}

	exact := exactLengths(prob, cons)
	for v := 0; v < prob.NumStrVars(); v++ {
		x := strcon.Var(v)
		name := prob.StrName(x)
		k, pinned := exact[x]
		switch {
		case numeric[x]:
			m := params.M
			if pinned && k >= 1 && k < m {
				// A numeric PFA with chain length |x| is complete for a
				// variable of pinned length and much smaller.
				m = k
			}
			if pinned && k == 0 {
				m = 1
			}
			res.R[x] = pfa.NewNumeric(pool, m, name)
		case pinned && k <= 12:
			res.R[x] = pfa.NewFreeWord(pool, k, name)
		default:
			res.R[x] = pfa.NewFlat(pool, params.Loops, params.LoopLen, name)
		}
	}

	var conj []lia.Formula
	// Global per-variable constraints: automaton structure (Parikh of
	// the flat automaton, character domains) and length definitions.
	for v := 0; v < prob.NumStrVars(); v++ {
		x := strcon.Var(v)
		conj = append(conj, res.R[x].Base())
	}
	lenVars := prob.LenVars()
	lenKeys := make([]strcon.Var, 0, len(lenVars))
	for x := range lenVars {
		lenKeys = append(lenKeys, x)
	}
	sort.Slice(lenKeys, func(i, j int) bool { return lenKeys[i] < lenKeys[j] })
	for _, x := range lenKeys {
		conj = append(conj, lengthFormula(pool, res.R[x], lenVars[x]))
	}

	for _, c := range cons {
		conj = append(conj, res.flattenCon(c, params))
	}
	res.Formula = lia.And(conj...)
	st.Add("formula.size", int64(lia.FormulaSize(res.Formula)))
	return res
}

// exactLengths scans top-level integer constraints for exact length
// pins |x| = k, which permit smaller complete restrictions.
func exactLengths(prob *strcon.Problem, cons []strcon.Constraint) map[strcon.Var]int {
	lenOwner := make(map[lia.Var]strcon.Var, len(prob.LenVars()))
	for x, lv := range prob.LenVars() {
		lenOwner[lv] = x
	}
	out := make(map[strcon.Var]int)
	for _, c := range cons {
		ar, ok := c.(*strcon.Arith)
		if !ok {
			continue
		}
		at, ok := ar.F.(*lia.Atom)
		if !ok || at.Op != lia.EQ || at.E.NumTerms() != 1 {
			continue
		}
		v := at.E.Vars()[0]
		x, isLen := lenOwner[v]
		if !isLen {
			continue
		}
		co := at.E.Coeff(v)
		k := new(big.Int).Neg(at.E.ConstPart())
		if co.Cmp(bigOne) != 0 || !k.IsInt64() || k.Sign() < 0 || k.Int64() > 64 {
			continue
		}
		out[x] = int(k.Int64())
	}
	return out
}

var bigOne = big.NewInt(1)

// lengthFormula is Ψ_lx of §7.3: the length variable equals the sum of
// the per-character-variable contributions l_v, where l_v is 0 for
// ε-valued variables and #v otherwise.
func lengthFormula(pool *lia.Pool, r pfa.Restriction, lx lia.Var) lia.Formula {
	var conj []lia.Formula
	sum := lia.NewLin()
	for _, v := range r.AllVars() {
		lv := pool.Fresh("l")
		sum.AddTermInt(lv, 1)
		conj = append(conj, lia.Or(
			lia.And(lia.EqConst(v, alphabet.Epsilon), lia.EqConst(lv, 0)),
			lia.And(lia.Ge(lia.V(v), lia.Const(0)), lia.Eq(lia.V(lv), lia.V(r.Count(v)))),
		))
	}
	conj = append(conj, lia.Eq(lia.V(lx), sum))
	return lia.And(conj...)
}

// termPA builds the parametric automaton of one side of a word
// equation: the concatenation of the variables' restrictions and fresh
// constant PFAs. Constant PFAs are ephemeral; their base constraints
// are appended to extra.
func (res *Result) termPA(t strcon.Term, extra *[]lia.Formula) *pfa.PA {
	pool := res.prob.Lia
	if len(t) == 0 {
		c := pfa.NewConst(pool, "", "eps")
		*extra = append(*extra, c.Base())
		return c.PA()
	}
	pas := make([]*pfa.PA, 0, len(t))
	for i, it := range t {
		if it.IsVar {
			pas = append(pas, res.R[it.V].PA())
		} else {
			c := pfa.NewConst(pool, it.Const, fmt.Sprintf("k%d", i))
			*extra = append(*extra, c.Base())
			pas = append(pas, c.PA())
		}
	}
	return pfa.ConcatAll(pool, pas...)
}

// flattenCon translates one constraint.
func (res *Result) flattenCon(c strcon.Constraint, params Params) lia.Formula {
	pool := res.prob.Lia
	switch t := c.(type) {
	case *strcon.WordEq:
		var extra []lia.Formula
		left := res.termPA(t.L, &extra)
		right := res.termPA(t.R, &extra)
		sync := pfa.Sync(res.ec, pool, left, right, res.Cuts, res.stats)
		return lia.And(append(extra, sync)...)

	case *strcon.WordNeq:
		// contract: Prepare runs before flattening.
		panic("flatten: WordNeq must be desugared by Problem.Prepare")

	case *strcon.Membership:
		a := t.Automaton().RemoveEpsilon().Trim()
		if a.IsEmpty() {
			return lia.False
		}
		pa := pfa.FromNFA(pool, a, "re")
		return pfa.Sync(res.ec, pool, res.R[t.X].PA(), pa, res.Cuts, res.stats)

	case *strcon.Arith:
		return t.F

	case *strcon.ToNum:
		n := mustNumeric(res.R[t.X])
		return n.FlattenToNum(t.N)

	case *strcon.ToStr:
		n := mustNumeric(res.R[t.X])
		canonical := lia.And(
			n.NotNaN(),
			lia.EqConst(n.V0, 0),
			n.Shift(),
			n.ToInt(t.N),
			n.Canonical(),
			lia.Ge(lia.V(t.N), lia.Const(0)),
		)
		// Negative numbers map to the empty string.
		var empty []lia.Formula
		empty = append(empty, lia.Le(lia.V(t.N), lia.Const(-1)))
		empty = append(empty, emptyNumeric(n)...)
		return lia.Or(canonical, lia.And(empty...))

	case *strcon.Ord:
		n := mustNumeric(res.R[t.X])
		var conj []lia.Formula
		conj = append(conj,
			lia.EqConst(n.Count(n.V0), 0),
			lia.Ge(lia.V(n.Chain[0]), lia.Const(0)),
			lia.Eq(lia.V(t.N), lia.V(n.Chain[0])))
		for _, v := range n.Chain[1:] {
			conj = append(conj, lia.EqConst(v, alphabet.Epsilon))
		}
		return lia.And(conj...)

	case *strcon.AndCon:
		var conj []lia.Formula
		for _, a := range t.Args {
			conj = append(conj, res.flattenCon(a, params))
		}
		return lia.And(conj...)

	case *strcon.OrCon:
		var dis []lia.Formula
		for _, a := range t.Args {
			dis = append(dis, res.flattenCon(a, params))
		}
		return lia.Or(dis...)
	}
	// contract: the constraint set is closed.
	panic("flatten: unknown constraint type")
}

func emptyNumeric(n *pfa.Numeric) []lia.Formula {
	var conj []lia.Formula
	conj = append(conj, lia.EqConst(n.Count(n.V0), 0))
	for _, v := range n.Chain {
		conj = append(conj, lia.EqConst(v, alphabet.Epsilon))
	}
	return conj
}

func mustNumeric(r pfa.Restriction) *pfa.Numeric {
	n, ok := r.(*pfa.Numeric)
	if !ok {
		// contract: Flatten assigns numeric restrictions to these variables.
		panic("flatten: string-number constraint on a non-numeric restriction")
	}
	return n
}

// Decode maps a model of the flattened formula back to an assignment of
// the string constraint (decode_R, Theorem 6.2). Malformed models —
// possible only for adversarial inputs or truncated encodings — return
// an error; the decision procedure treats that as a failed candidate,
// never as a verdict.
func (res *Result) Decode(m lia.Model) (*strcon.Assignment, error) {
	a := &strcon.Assignment{Str: make(map[strcon.Var]string), Int: lia.Model{}}
	for x, r := range res.R {
		s, err := r.Decode(m)
		if err != nil {
			return nil, err
		}
		a.Str[x] = s
	}
	// Copy the whole integer model: the validator needs auxiliary
	// integer variables (desugaring ords, etc.), not just user ones.
	for v, x := range m {
		a.Int[v] = x
	}
	for _, iv := range res.prob.IntVars {
		a.Int[iv] = m.Value(iv)
	}
	return a, nil
}
