package lia

import (
	"math/big"
	"slices"
	"sort"

	"repro/internal/engine"
	"repro/internal/sat"
	"repro/internal/simplex"
)

// Result is the outcome of Solve.
type Result int

// Solve outcomes.
const (
	ResUnsat Result = iota
	ResSat
	ResUnknown
)

func (r Result) String() string {
	switch r {
	case ResUnsat:
		return "unsat"
	case ResSat:
		return "sat"
	case ResUnknown:
		return "unknown"
	}
	return "?"
}

// Options configure a Solve or a Session. The zero value searches with
// no deadline, no statistics sink and no model screen.
type Options struct {
	// Ctx, when non-nil, carries the deadline and cancellation flag
	// (polled inside the SAT and simplex hot loops) and the statistics
	// tree the search records into. A stopped context aborts the search
	// with ResUnknown.
	Ctx *engine.Ctx
	// OnModel, when set, screens each candidate model. Returning nil
	// accepts the model; returning a formula rejects it and conjoins
	// the formula as a lemma (the lemma must be satisfied by every
	// intended solution, or Solve's answers become unsound). Used for
	// lazy constraint generation such as connectivity cuts. A Session
	// ignores it: each SolveRound passes its own screen.
	OnModel func(Model) Formula
}

// Search budgets; running out answers ResUnknown.
const (
	satConflictBudget = 2000000 // conflicts per SAT search
	bbNodeBudget      = 6000    // branch-and-bound nodes per final check
	pivotBudget       = 2000000 // simplex pivots per consistency check
)

// atomRec is one canonical theory atom, the upper bound comb <= bound
// on the combination expr. Asserted false it is the lower bound
// comb >= bound+1, so a lower bound comb >= b is the atom comb <= b-1
// asserted false: over the integers the two are one fact.
type atomRec struct {
	expr   *exprRec
	bound  *big.Int
	satVar int
	// posNum/negNum are the asserted bounds precomputed as simplex Nums,
	// so each assert is a machine-word comparison instead of fresh
	// big.Rat and big.Int allocations: posNum is bound (the atom true),
	// negNum is bound+1 (the atom false).
	posNum simplex.Num
	negNum simplex.Num
}

// assert asserts the atom with the given polarity on simplex variable
// sv of sx, tagged with the atom's index.
func (a *atomRec) assert(sx *simplex.Solver, sv int, polarity bool, tag int) *simplex.Conflict {
	if polarity {
		return sx.AssertUpperNum(sv, a.posNum, tag)
	}
	return sx.AssertLowerNum(sv, a.negNum, tag)
}

// exprRec is one interned combination with its atoms.
type exprRec struct {
	comb
	sv    int   // simplex variable (original var or slack), -1 until built
	atoms []int // indices of the atoms on this combination, by increasing bound
}

// dpllt is the online DPLL(T) engine: it implements sat.TheoryClient,
// streaming atom assignments into a Dutertre–de Moura simplex whose
// bound frames mirror the SAT decision levels, learning conflict
// clauses from Farkas explanations, running branch-and-bound for
// integrality plus lazy lemma generation at complete assignments.
type dpllt struct {
	opts  Options
	sat   *sat.Solver
	atoms []atomRec
	exprs map[string]*exprRec // by comb.key
	vars  map[Var]bool        // all theory variables

	sx            *simplex.Solver
	intVars       []int
	intVarSet     map[int]bool
	identityLimit int         // lia vars below this map to equal simplex ids
	extraSv       map[Var]int // simplex ids of later-arriving variables
	atomOfVar     map[int]int // sat var -> atom index

	assertedPol []int8 // 0 unasserted, 1 true, 2 false (per atom)
	thTrail     []int  // atom indices in assertion order
	thLevels    []int  // thTrail marks per theory level

	ps         *presolver
	stats      *engine.Stats // the "lia" stats node (nil-safe)
	finalModel Model
	abort      bool // pivot budget exhausted mid-search
}

// Solve decides satisfiability of the quantifier-free LIA formula f
// over integer-valued variables. On ResSat the model satisfies f.
//
// Solve is a Session searched once, with f as its persistent part: f's
// encoding is a unit clause, so its implications hold at decision level
// 0, and the search runs with no activation literal and no assumptions.
func Solve(f Formula, opts *Options) (Result, Model) {
	s := NewSession(opts)
	stopPresolve := s.opts.Ctx.Stats().Child("lia").Time("time.presolve")
	g := s.addPersistent(f)
	stopPresolve()
	if b, ok := g.(Bool); ok {
		if !bool(b) {
			return ResUnsat, nil
		}
		// Presolve settled every variable: there is nothing to search.
		m := Model{}
		s.ps.complete(m)
		return s.checkModel(nil, m)
	}
	return s.search(nil, nil, s.opts.OnModel)
}

// --- sat.TheoryClient implementation -------------------------------

// TheoryAssert streams one literal into the simplex (cheap bound-vs-
// bound check only; pivoting happens in TheoryCheck).
func (d *dpllt) TheoryAssert(l sat.Lit) []sat.Lit {
	idx, ok := d.atomOfVar[l.Var()]
	if !ok {
		return nil
	}
	pol := !l.Neg()
	d.thTrail = append(d.thTrail, idx)
	if pol {
		d.assertedPol[idx] = 1
	} else {
		d.assertedPol[idx] = 2
	}
	a := &d.atoms[idx]
	if c := a.assert(d.sx, a.expr.sv, pol, idx); c != nil {
		if c.Budget {
			d.abort = true
			return nil
		}
		d.stats.Add("theory.conflicts", 1)
		return d.coreLits(c.Tags)
	}
	return nil
}

// TheoryCheck restores simplex feasibility at a propagation fixpoint.
func (d *dpllt) TheoryCheck() []sat.Lit {
	c := d.sx.Check()
	if c == nil {
		return nil
	}
	if c.Budget {
		d.abort = true
		return nil
	}
	d.stats.Add("theory.conflicts", 1)
	return d.coreLits(c.Tags)
}

// TheoryPush mirrors a new SAT decision level.
func (d *dpllt) TheoryPush() {
	d.sx.Push()
	d.thLevels = append(d.thLevels, len(d.thTrail))
}

// TheoryPop undoes the n most recent levels.
func (d *dpllt) TheoryPop(n int) {
	for ; n > 0; n-- {
		mark := d.thLevels[len(d.thLevels)-1]
		d.thLevels = d.thLevels[:len(d.thLevels)-1]
		for i := len(d.thTrail) - 1; i >= mark; i-- {
			d.assertedPol[d.thTrail[i]] = 0
		}
		d.thTrail = d.thTrail[:mark]
		d.sx.Pop()
	}
}

// TheoryFinal runs integrality (branch and bound) and lazy lemma
// generation on a complete assignment.
func (d *dpllt) TheoryFinal() (sat.FinalResult, []sat.Lit) {
	d.stats.Add("final.checks", 1)
	if d.abort {
		return sat.FinalUnknown, nil
	}
	if d.opts.Ctx.Expired() {
		return sat.FinalUnknown, nil
	}
	bb := &simplex.IntSolver{S: d.sx, IntVars: d.intVars, NodeBudget: bbNodeBudget}
	res, model, confl := bb.Solve()
	switch res {
	case simplex.IntUnknown:
		return sat.FinalUnknown, nil
	case simplex.IntSat:
		m := make(Model, len(model))
		for v, x := range model {
			if v < d.identityLimit {
				m[Var(v)] = x
			}
		}
		for v, sv := range d.extraSv {
			if x, ok := model[sv]; ok {
				m[v] = x
			}
		}
		d.ps.complete(m)
		if d.opts.OnModel != nil {
			if lemma := d.opts.OnModel(m); lemma != nil {
				if b, isBool := lemma.(Bool); !isBool || !bool(b) {
					d.stats.Add("lemmas", 1)
					d.addLemma(d.ps.apply(lemma))
					return sat.FinalRestart, nil
				}
			}
		}
		d.finalModel = m
		return sat.FinalOK, nil
	}
	d.stats.Add("final.conflicts", 1)
	var core []int
	if confl != nil && !confl.Tainted && len(confl.Tags) > 0 {
		core = confl.Tags
	} else {
		full := make([]int, 0, len(d.thTrail))
		for i := range d.atoms {
			if d.assertedPol[i] != 0 {
				full = append(full, i)
			}
		}
		var hint []int
		if confl != nil {
			hint = confl.Tags
		}
		core = d.explainTainted(full, hint)
	}
	return sat.FinalConflict, d.coreLits(core)
}

// coreLits maps atom indices to the currently-true literals that
// asserted them.
func (d *dpllt) coreLits(tags []int) []sat.Lit {
	out := make([]sat.Lit, 0, len(tags))
	for _, t := range tags {
		switch d.assertedPol[t] {
		case 1:
			out = append(out, sat.MkLit(d.atoms[t].satVar, false))
		case 2:
			out = append(out, sat.MkLit(d.atoms[t].satVar, true))
		default:
			// A tag for a bound that is not currently asserted cannot
			// occur: simplex bounds are popped with their frames.
			// contract: simplex bounds are popped with their frames.
			panic("lia: conflict tag for unasserted atom")
		}
	}
	return out
}

// --- construction ---------------------------------------------------

// svOf maps a theory variable to its simplex variable id, allocating
// one for variables that arrived after initSimplex (lemma variables).
func (d *dpllt) svOf(v Var) int {
	if int(v) < d.identityLimit {
		return int(v)
	}
	if sv, ok := d.extraSv[v]; ok {
		return sv
	}
	sv := d.sx.NumVars()
	d.sx.EnsureVars(sv + 1)
	d.extraSv[v] = sv
	d.registerIntVar(sv)
	return sv
}

func (d *dpllt) registerIntVar(sv int) {
	if d.intVarSet == nil {
		d.intVarSet = make(map[int]bool)
	}
	if !d.intVarSet[sv] {
		d.intVarSet[sv] = true
		d.intVars = append(d.intVars, sv)
	}
}

// addLemma conjoins a lazily generated lemma: it is normalized, encoded
// incrementally into the SAT solver, and any new linear combinations
// get simplex variables. Adding clauses resets the SAT solver (and thus
// the theory frames) to decision level zero.
func (d *dpllt) addLemma(lemma Formula) {
	g := nnf(lemma, false)
	root := d.encode(g, 0)
	d.sat.AddClause(root)
	d.wireNewAtoms()
}

// sortedVars returns the keys of a variable set in increasing order, so
// that iteration order (and everything downstream of it: simplex ids,
// branch-and-bound order, model values) is deterministic.
func sortedVars(set map[Var]bool) []Var {
	out := make([]Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// encode performs polarity-aware (positive-only; the input is in NNF)
// Tseitin conversion and returns the literal representing f.
func (d *dpllt) encode(f Formula, depth int) sat.Lit {
	checkFormulaDepth(depth)
	// The CNF is a known blow-up site: every node allocates a SAT
	// variable and clauses. Bill the node; on a budget trip stop
	// descending and return a fresh unconstrained literal. Freeing a
	// positive-polarity subformula only weakens the encoding, so an
	// UNSAT of the truncated CNF still implies UNSAT of f — and a SAT
	// model is validated against the original formula before being
	// trusted, so truncation can only degrade the verdict to UNKNOWN.
	if d.opts.Ctx.Charge("lia cnf", 1) {
		return sat.MkLit(d.sat.NewVar(), false)
	}
	switch t := f.(type) {
	case Bool:
		v := d.sat.NewVar()
		d.sat.AddClause(sat.MkLit(v, !bool(t)))
		return sat.MkLit(v, false)
	case *Atom:
		return d.atomLit(t.E)
	case *NAry:
		x := d.sat.NewVar()
		xl := sat.MkLit(x, false)
		if t.Op == OpAnd {
			for _, a := range t.Args {
				d.sat.AddClause(xl.Flip(), d.encode(a, depth+1))
			}
		} else {
			clause := make([]sat.Lit, 0, len(t.Args)+1)
			clause = append(clause, xl.Flip())
			for _, a := range t.Args {
				clause = append(clause, d.encode(a, depth+1))
			}
			d.sat.AddClause(clause...)
		}
		return xl
	}
	// contract: encode is only called on NNF output.
	panic("lia: unexpected node in encode (input not in NNF?)")
}

// atomLit interns the LE atom e <= 0 and returns its literal. Every
// theory atom is an upper bound comb <= b, so a lower bound comb >= b
// is the negated literal of comb <= b-1 and a bound shares its SAT
// variable with its complement. A new atom is linked to its nearest
// neighbours on the same combination, comb <= lo < b < hi, by the
// binary clauses (comb <= lo) -> (comb <= b) and (comb <= b) ->
// (comb <= hi); unit propagation closes the chain, so CDCL never
// decides a bound that an assigned bound on its combination implies.
// The clauses are integer facts that hold in every round, so they take
// no activation literal.
func (d *dpllt) atomLit(e *LinExpr) sat.Lit {
	c, bound, upper := canonAtom(e)
	if !upper {
		bound.Sub(bound, oneInt)
	}
	er, ok := d.exprs[c.key]
	if !ok {
		for _, v := range c.vars {
			d.vars[v] = true
		}
		er = &exprRec{comb: c, sv: -1}
		d.exprs[c.key] = er
	}
	i, found := slices.BinarySearchFunc(er.atoms, bound, func(a int, b *big.Int) int {
		return d.atoms[a].bound.Cmp(b)
	})
	if found {
		return sat.MkLit(d.atoms[er.atoms[i]].satVar, !upper)
	}
	v := d.sat.NewVar()
	pos := simplex.NumFromBigInt(bound)
	d.atoms = append(d.atoms, atomRec{
		expr: er, bound: bound, satVar: v, posNum: pos, negNum: pos.AddInt64(1),
	})
	er.atoms = slices.Insert(er.atoms, i, len(d.atoms)-1)
	lit := sat.MkLit(v, false)
	if i > 0 {
		d.sat.AddClause(sat.MkLit(d.atoms[er.atoms[i-1]].satVar, true), lit)
	}
	if i+1 < len(er.atoms) {
		d.sat.AddClause(lit.Flip(), sat.MkLit(d.atoms[er.atoms[i+1]].satVar, false))
	}
	return sat.MkLit(v, !upper)
}

// initSimplex builds the persistent simplex: one variable per theory
// variable, one slack per distinct linear combination.
func (d *dpllt) initSimplex() {
	maxVar := -1
	for v := range d.vars {
		if int(v) > maxVar {
			maxVar = int(v)
		}
	}
	d.identityLimit = maxVar + 1
	d.extraSv = make(map[Var]int)
	d.sx = simplex.New(maxVar + 1)
	d.sx.PivotBudget = pivotBudget
	d.sx.Ctx = d.opts.Ctx
	for _, v := range sortedVars(d.vars) {
		d.registerIntVar(int(v))
	}
	d.defineExprs()
}

// defineExprs gives every not-yet-built linear combination a simplex
// variable (the variable itself for single unit terms, a slack
// otherwise). Called at init and again after lemma encoding.
func (d *dpllt) defineExprs() {
	keys := make([]string, 0, len(d.exprs))
	for k := range d.exprs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		er := d.exprs[k]
		if er.sv >= 0 {
			continue
		}
		if len(er.def) == 1 {
			v := er.vars[0]
			if er.def[v].Cmp(oneInt) == 0 {
				er.sv = d.svOf(v)
				continue
			}
		}
		// Iterate er.vars, not er.def: svOf allocates simplex ids for
		// late-arriving variables, so the visit order must be fixed.
		idef := make(map[int]*big.Int, len(er.def))
		for _, v := range er.vars {
			idef[d.svOf(v)] = er.def[v]
		}
		er.sv = d.sx.DefineSlack(idef)
	}
}

// --- tainted-core explanation ---------------------------------------

// explainTainted turns an unexplained (full assignment) integer
// conflict into a small core: the branch-and-bound tag hint is verified
// first; failing that, geometric-chunk deletion shrinks the full set.
// Subset checks run on a scratch simplex so the search tableau and its
// frames stay untouched.
func (d *dpllt) explainTainted(core, hint []int) []int {
	checks := 0
	const maxChecks = 48
	if len(hint) > 0 && len(hint) < len(core) {
		if inf, sub := d.subsetCheck(hint); inf {
			checks++
			if len(sub) > 0 && len(sub) < len(hint) {
				hint = sub
			}
			return d.chunkShrink(hint, maxChecks-checks)
		}
		checks++
	}
	return d.chunkShrink(core, maxChecks-checks)
}

// chunkShrink performs deletion-based core shrinking with geometrically
// decreasing chunk sizes, adopting any smaller sub-core reported by the
// re-checks.
func (d *dpllt) chunkShrink(core []int, maxChecks int) []int {
	cur := append([]int(nil), core...)
	checks := 0
	for chunk := (len(cur) + 1) / 2; chunk >= 1 && checks < maxChecks; chunk /= 2 {
		for i := 0; i < len(cur) && checks < maxChecks && len(cur) > 1; {
			end := i + chunk
			if end > len(cur) {
				end = len(cur)
			}
			trial := make([]int, 0, len(cur)-(end-i))
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[end:]...)
			if len(trial) == 0 {
				break
			}
			inf, sub := d.subsetCheck(trial)
			checks++
			if !inf {
				i = end
				continue
			}
			if len(sub) > 0 && len(sub) < len(trial) {
				cur = append(cur[:0], sub...)
				i = 0
				continue
			}
			cur = trial
		}
	}
	return cur
}

// subsetCheck tests integer feasibility of a subset of the currently
// asserted atoms on a scratch simplex; when infeasible it may return a
// smaller verified core.
//
// The scratch tableau holds only the subset's own variables, renumbered
// in increasing order of their search-tableau ids, with the slacks after
// them in creation order. Every ascending-id tie-break of the simplex and
// of branch and bound therefore picks the same variable as it would on a
// copy of the search tableau's whole variable space.
func (d *dpllt) subsetCheck(subset []int) (infeasible bool, subcore []int) {
	var ids []int
	for _, i := range subset {
		for _, v := range d.atoms[i].expr.vars {
			ids = append(ids, d.svOf(v))
		}
	}
	sort.Ints(ids)
	ids = slices.Compact(ids)
	m := len(ids)
	local := func(v Var) int { return sort.SearchInts(ids, d.svOf(v)) }
	scratch := simplex.New(m)
	scratch.PivotBudget = pivotBudget / 4
	scratch.Ctx = d.opts.Ctx
	slackOf := make(map[*exprRec]int)
	for _, i := range subset {
		a := &d.atoms[i]
		er := a.expr
		sv, ok := slackOf[er]
		if !ok {
			if len(er.def) == 1 {
				v := er.vars[0]
				if er.def[v].Cmp(oneInt) == 0 {
					sv = local(v)
					ok = true
				}
			}
			if !ok {
				idef := make(map[int]*big.Int, len(er.def))
				for _, v := range er.vars {
					idef[local(v)] = er.def[v]
				}
				sv = scratch.DefineSlack(idef)
			}
			slackOf[er] = sv
		}
		if c := a.assert(scratch, sv, d.assertedPol[i] == 1, i); c != nil {
			if !c.Tainted {
				return true, c.Tags
			}
			return true, nil
		}
	}
	// Every scratch problem variable is a variable of the subset, and all
	// of them are integers.
	intVars := make([]int, m)
	for v := range intVars {
		intVars[v] = v
	}
	bb := &simplex.IntSolver{S: scratch, IntVars: intVars, NodeBudget: bbNodeBudget / 8}
	res, _, c := bb.Solve()
	if res != simplex.IntUnsat {
		return false, nil
	}
	if c != nil && !c.Tainted {
		return true, c.Tags
	}
	return true, nil
}
