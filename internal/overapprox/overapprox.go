// Package overapprox implements the over-approximation step of the
// decision procedure (paper §4): the string constraint is relaxed into
// a decidable linear-arithmetic abstraction; if the abstraction is
// unsatisfiable, so is the original constraint.
//
// The paper over-approximates into the chain-free fragment after
// rewriting toNum constraints into basic ones. Chain-free solving is a
// solver in its own right; this reproduction substitutes a
// character-count (Parikh) abstraction with the same role and similar
// UNSAT power on the benchmark families (documented in DESIGN.md):
//
//   - every string variable x gets per-bucket character counters
//     (one bucket per decimal digit, one for all other characters)
//     linked to |x|,
//   - word equations equate the bucket sums of both sides (this is the
//     Parikh-image abstraction of the equation; it is what breaks
//     dependency chains soundly),
//   - regular constraints contribute the flow-based Parikh image of
//     their automata, split over the buckets, plus a per-variable
//     automata-intersection emptiness check,
//   - toNum/toStr constraints contribute sign, digit-purity, and
//     piecewise magnitude bounds (10^(k-1) <= n < 10^k),
//   - integer constraints pass through unchanged.
package overapprox

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/automata"
	"repro/internal/engine"
	"repro/internal/lia"
	"repro/internal/parikh"
	"repro/internal/pfa"
	"repro/internal/strcon"
)

// numBuckets is 10 digit buckets plus one for all other characters.
const numBuckets = 11

const otherBucket = 10

// Result carries the abstraction formula and the lazy-connectivity
// registry for the regular constraints' flow encodings.
type Result struct {
	Formula lia.Formula
	Cuts    *pfa.CutRegistry
}

// OnModel is the lazy-lemma callback for lia.Options.
func (r *Result) OnModel(m lia.Model) lia.Formula {
	return r.Cuts.Lemmas(m)
}

type abstractor struct {
	prob *strcon.Problem
	cuts *pfa.CutRegistry
	cnt  map[strcon.Var][]lia.Var // per-variable bucket counters
	base []lia.Formula            // per-variable linking constraints

	// memberships collects top-level regular constraints per variable
	// for the intersection-emptiness check.
	memberships map[strcon.Var][]*automata.NFA
}

// Abstract builds the over-approximation of the given constraints of a
// prepared problem. The slice is passed explicitly so case-split
// branches can be abstracted without mutating the shared problem; pass
// prob.Constraints for the whole problem. Abstraction size and time are
// recorded on ec's stats tree.
func Abstract(prob *strcon.Problem, cons []strcon.Constraint, ec *engine.Ctx) *Result {
	st := ec.Stats().Child("overapprox")
	st.Add("calls", 1)
	defer st.Time("time")()
	a := &abstractor{
		prob:        prob,
		cuts:        &pfa.CutRegistry{},
		cnt:         make(map[strcon.Var][]lia.Var),
		memberships: make(map[strcon.Var][]*automata.NFA),
	}
	var conj []lia.Formula
	for _, c := range cons {
		conj = append(conj, a.abstractCon(c, true))
	}
	if prefixSuffixConflict(cons) {
		conj = append(conj, lia.False)
	}
	// Intersection emptiness per variable (bounded product size).
	memberVars := make([]strcon.Var, 0, len(a.memberships))
	for x := range a.memberships {
		memberVars = append(memberVars, x)
	}
	sort.Slice(memberVars, func(i, j int) bool { return memberVars[i] < memberVars[j] })
	for _, x := range memberVars {
		if emptyIntersection(a.memberships[x]) {
			conj = append(conj, lia.False)
			break
		}
	}
	conj = append(conj, a.base...)
	res := &Result{Formula: lia.And(conj...), Cuts: a.cuts}
	st.Add("formula.size", int64(lia.FormulaSize(res.Formula)))
	return res
}

// counters returns (allocating on first use) the bucket counters of x,
// emitting the linking constraints cnt >= 0 and sum(cnt) = |x|.
func (a *abstractor) counters(x strcon.Var) []lia.Var {
	if cs, ok := a.cnt[x]; ok {
		return cs
	}
	cs := make([]lia.Var, numBuckets)
	sum := lia.NewLin()
	for b := range cs {
		cs[b] = a.prob.Lia.Fresh(fmt.Sprintf("cnt_%s_%d", a.prob.StrName(x), b))
		a.base = append(a.base, lia.Ge(lia.V(cs[b]), lia.Const(0)))
		sum.AddTermInt(cs[b], 1)
	}
	a.base = append(a.base, lia.Eq(sum, lia.V(a.prob.LenVar(x))))
	a.base = append(a.base, lia.Ge(lia.V(a.prob.LenVar(x)), lia.Const(0)))
	a.cnt[x] = cs
	return cs
}

// bucketExprs returns, for a word term, one linear expression per
// bucket summing the term's character counts.
func (a *abstractor) bucketExprs(t strcon.Term) []*lia.LinExpr {
	es := make([]*lia.LinExpr, numBuckets)
	for b := range es {
		es[b] = lia.NewLin()
	}
	for _, it := range t {
		if it.IsVar {
			cs := a.counters(it.V)
			for b := range es {
				es[b].AddTermInt(cs[b], 1)
			}
			continue
		}
		for i := 0; i < len(it.Const); i++ {
			ch := it.Const[i]
			if ch >= '0' && ch <= '9' {
				es[ch-'0'].AddConst(1)
			} else {
				es[otherBucket].AddConst(1)
			}
		}
	}
	return es
}

func (a *abstractor) abstractCon(c strcon.Constraint, topLevel bool) lia.Formula {
	switch t := c.(type) {
	case *strcon.WordEq:
		l := a.bucketExprs(t.L)
		r := a.bucketExprs(t.R)
		var conj []lia.Formula
		for b := range l {
			conj = append(conj, lia.Eq(l[b], r[b]))
		}
		return lia.And(conj...)

	case *strcon.WordNeq:
		// Conservative: a disequality excludes at most one value.
		return lia.True

	case *strcon.Membership:
		nfa := t.Automaton().RemoveEpsilon().Trim()
		if nfa.IsEmpty() {
			return lia.False
		}
		if topLevel {
			a.memberships[t.X] = append(a.memberships[t.X], nfa)
		}
		return a.regularParikh(t.X, nfa)

	case *strcon.Arith:
		return t.F

	case *strcon.ToNum:
		return a.toNum(t.N, t.X, false)

	case *strcon.ToStr:
		cs := a.counters(t.X)
		lenX := lia.V(a.prob.LenVar(t.X))
		neg := lia.And(
			lia.Le(lia.V(t.N), lia.Const(-1)),
			lia.Eq(lenX.Clone(), lia.Const(0)),
		)
		pos := lia.And(
			lia.Ge(lia.V(t.N), lia.Const(0)),
			lia.EqConst(cs[otherBucket], 0),
			lia.Ge(lenX.Clone(), lia.Const(1)),
			magnitude(t.N, a.prob.LenVar(t.X), true),
		)
		return lia.Or(neg, pos)

	case *strcon.Ord:
		return lia.And(
			lia.EqConst(a.prob.LenVar(t.X), 1),
			lia.Ge(lia.V(t.N), lia.Const(0)),
			lia.Le(lia.V(t.N), lia.Const(255)),
		)

	case *strcon.AndCon:
		var conj []lia.Formula
		for _, arg := range t.Args {
			conj = append(conj, a.abstractCon(arg, false))
		}
		return lia.And(conj...)

	case *strcon.OrCon:
		var dis []lia.Formula
		for _, arg := range t.Args {
			dis = append(dis, a.abstractCon(arg, false))
		}
		return lia.Or(dis...)
	}
	// contract: the constraint set is closed.
	panic("overapprox: unknown constraint type")
}

// toNum abstracts n = toNum(x).
func (a *abstractor) toNum(n lia.Var, x strcon.Var, canonical bool) lia.Formula {
	cs := a.counters(x)
	lenX := lia.V(a.prob.LenVar(x))
	nan := lia.And(
		lia.EqConst(n, -1),
		lia.Or(
			lia.Ge(lia.V(cs[otherBucket]), lia.Const(1)),
			lia.Eq(lenX.Clone(), lia.Const(0)),
		),
	)
	num := lia.And(
		lia.Ge(lia.V(n), lia.Const(0)),
		lia.EqConst(cs[otherBucket], 0),
		lia.Ge(lenX.Clone(), lia.Const(1)),
		magnitude(n, a.prob.LenVar(x), canonical),
	)
	return lia.Or(nan, num)
}

// magnitude links a numeral's value and length piecewise: for length k
// (up to a cutoff) n < 10^k, and for canonical numerals additionally
// n >= 10^(k-1).
func magnitude(n lia.Var, lenVar lia.Var, canonical bool) lia.Formula {
	const cutoff = 18
	var conj []lia.Formula
	pow := big.NewInt(1) // 10^(k-1) at iteration k
	ten := big.NewInt(10)
	for k := 1; k <= cutoff; k++ {
		hi := new(big.Int).Mul(pow, ten)
		upper := lia.Lt(lia.V(n), lia.ConstBig(hi))
		body := upper
		if canonical {
			body = lia.And(upper, lia.Ge(lia.V(n), lia.ConstBig(pow)))
		}
		conj = append(conj, lia.Implies(lia.EqConst(lenVar, int64(k)), body))
		pow = hi
	}
	return lia.And(conj...)
}

// regularParikh emits the bucket-split Parikh image of an automaton for
// variable x, registering the flow graph for lazy connectivity cuts.
func (a *abstractor) regularParikh(x strcon.Var, nfa *automata.NFA) lia.Formula {
	cs := a.counters(x)
	pool := a.prob.Lia
	aut := parikh.Automaton{NumStates: nfa.NumStates + 1, Init: nfa.Init, Final: nfa.NumStates}
	type edgeInfo struct {
		r   automata.Range
		eps bool
	}
	var infos []edgeInfo
	for _, tr := range nfa.Trans {
		aut.Edges = append(aut.Edges, parikh.Edge{From: tr.From, To: tr.To})
		infos = append(infos, edgeInfo{r: tr.R, eps: tr.Eps})
	}
	for _, f := range nfa.Finals {
		aut.Edges = append(aut.Edges, parikh.Edge{From: f, To: nfa.NumStates})
		infos = append(infos, edgeInfo{eps: true})
	}
	flow := make([]lia.Var, len(aut.Edges))
	for i := range flow {
		flow[i] = pool.Fresh("oaflow")
	}
	conj := a.cuts.Parikh(pool, aut, flow)

	// Bucket split: each edge's flow distributes over the buckets its
	// range intersects; bucket counters are the per-bucket totals.
	sums := make([]*lia.LinExpr, numBuckets)
	for b := range sums {
		sums[b] = lia.NewLin()
	}
	for i, info := range infos {
		if info.eps {
			continue
		}
		var buckets []int
		for d := 0; d <= 9; d++ {
			if info.r.Contains(d) {
				buckets = append(buckets, d)
			}
		}
		if info.r.Hi >= 10 {
			buckets = append(buckets, otherBucket)
		}
		switch len(buckets) {
		case 0:
			conj = append(conj, lia.EqConst(flow[i], 0))
		case 1:
			sums[buckets[0]].AddTermInt(flow[i], 1)
		default:
			split := lia.NewLin()
			for _, b := range buckets {
				y := pool.Fresh("oasplit")
				conj = append(conj, lia.Ge(lia.V(y), lia.Const(0)))
				sums[b].AddTermInt(y, 1)
				split.AddTermInt(y, 1)
			}
			conj = append(conj, lia.Eq(split, lia.V(flow[i])))
		}
	}
	for b := range sums {
		conj = append(conj, lia.Eq(lia.V(cs[b]), sums[b]))
	}
	return lia.And(conj...)
}

// prefixSuffixConflict derives, for every variable, the constant
// prefixes and suffixes forced by top-level word equations of the form
// x = t, and reports a definite conflict (two forced prefixes of the
// same variable that disagree, or likewise for suffixes). This is the
// ordering-sensitive complement of the character-count abstraction; it
// cheaply refutes the prefix/suffix contradictions common in the
// cvc4pred-style suites.
func prefixSuffixConflict(cons []strcon.Constraint) bool {
	prefixes := map[strcon.Var][]string{}
	suffixes := map[strcon.Var][]string{}
	record := func(x strcon.Var, t strcon.Term) {
		// Leading constant characters of t.
		if len(t) > 0 && !t[0].IsVar && t[0].Const != "" {
			prefixes[x] = append(prefixes[x], t[0].Const)
		}
		if last := t[len(t)-1]; len(t) > 0 && !last.IsVar && last.Const != "" {
			suffixes[x] = append(suffixes[x], last.Const)
		}
	}
	for _, c := range cons {
		eq, ok := c.(*strcon.WordEq)
		if !ok {
			continue
		}
		if len(eq.L) == 1 && eq.L[0].IsVar && len(eq.R) > 0 {
			record(eq.L[0].V, eq.R)
		}
		if len(eq.R) == 1 && eq.R[0].IsVar && len(eq.L) > 0 {
			record(eq.R[0].V, eq.L)
		}
	}
	disagree := func(a, b string, fromEnd bool) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for i := 0; i < n; i++ {
			if fromEnd {
				if a[len(a)-1-i] != b[len(b)-1-i] {
					return true
				}
			} else if a[i] != b[i] {
				return true
			}
		}
		return false
	}
	for _, ps := range prefixes {
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				if disagree(ps[i], ps[j], false) {
					return true
				}
			}
		}
	}
	for _, ss := range suffixes {
		for i := 0; i < len(ss); i++ {
			for j := i + 1; j < len(ss); j++ {
				if disagree(ss[i], ss[j], true) {
					return true
				}
			}
		}
	}
	return false
}

// emptyIntersection intersects the automata pairwise (bounded) and
// reports definite emptiness.
func emptyIntersection(nfas []*automata.NFA) bool {
	if len(nfas) == 0 {
		return false
	}
	cur := nfas[0]
	for _, next := range nfas[1:] {
		if cur.NumStates*next.NumStates > 20000 {
			return false // too big; stay sound by giving up
		}
		cur = automata.Product(cur, next)
		if cur.IsEmpty() {
			return true
		}
	}
	return cur.IsEmpty()
}
