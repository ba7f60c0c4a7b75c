package lia

import (
	"math/big"
	"sort"
)

// presolve simplifies a formula before the DPLL(T) search by
// repeatedly harvesting facts from top-level conjuncts:
//
//   - a*v + k = 0        pins v to -k/a (or proves False),
//   - a*v - a*w + k = 0  aliases v to w - k/a (or proves False),
//
// substituting them everywhere and folding constants. Flattened string
// constraints are full of such pins (constant characters, ε bridges,
// unit Parikh counters, loop-counter equalities), so this pass shrinks
// them dramatically. The undo log allows models of the simplified
// formula to be completed back to models of the original.
type presolver struct {
	undo   []undoEntry
	rounds []substRound
	// frozen, when non-nil, lists variables that must not be pinned or
	// alias-eliminated: they already occur in previously encoded
	// formulas, so removing their defining facts from the residue (and
	// overwriting their values in complete) would be unsound. Shared
	// with the owning engine's variable set; read during harvest.
	frozen map[Var]bool
}

// fork returns a presolver that starts from ps's substitution history
// but records new rounds privately: the session uses one fork per
// refinement round, so round-local pins never leak into other rounds.
// The slices are capped so appends copy instead of clobbering ps.
func (ps *presolver) fork(frozen map[Var]bool) *presolver {
	return &presolver{
		undo:   ps.undo[:len(ps.undo):len(ps.undo)],
		rounds: ps.rounds[:len(ps.rounds):len(ps.rounds)],
		frozen: frozen,
	}
}

// substRound is one round's substitution maps, kept so that formulas
// added later (lazy lemmas) can be rewritten consistently.
type substRound struct {
	pins    map[Var]*big.Int
	aliases map[Var]aliasTo
}

// apply rewrites a later-arriving formula through the same substitution
// rounds that simplified the original input.
func (ps *presolver) apply(f Formula) Formula {
	for _, r := range ps.rounds {
		f = substitute(f, r.pins, r.aliases)
	}
	return f
}

type undoEntry struct {
	v     Var
	alias Var // valid when hasAlias
	delta *big.Int
	has   bool // alias present; otherwise a constant pin (delta)
}

// run simplifies f, returning the residue formula.
func (ps *presolver) run(f Formula) Formula {
	for round := 0; round < 30; round++ {
		pins := make(map[Var]*big.Int)
		aliases := make(map[Var]aliasTo)
		if contradiction := harvest(f, pins, aliases, ps.frozen); contradiction {
			return False
		}
		if len(pins) == 0 && len(aliases) == 0 {
			return f
		}
		for _, v := range sortedPinVars(pins) {
			ps.undo = append(ps.undo, undoEntry{v: v, delta: pins[v]})
		}
		for _, v := range sortedAliasVars(aliases) {
			a := aliases[v]
			ps.undo = append(ps.undo, undoEntry{v: v, alias: a.w, delta: a.d, has: true})
		}
		ps.rounds = append(ps.rounds, substRound{pins: pins, aliases: aliases})
		f = substitute(f, pins, aliases)
		if b, isBool := f.(Bool); isBool {
			return b
		}
	}
	return f
}

type aliasTo struct {
	w Var
	d *big.Int
}

// harvest scans top-level conjuncts for pins and aliases, filling the
// maps. It reports whether a contradictory fact (crossing bounds on the
// same combination) was found. The input is in LE-normal form (nnf
// rewrites equalities into bound pairs), so facts are reconstructed by
// pairing canonical upper and lower bounds on the same one- or two-
// variable combination. To keep the substitution acyclic within a
// round, a variable is recorded at most once and alias targets are
// never themselves rewritten this round. Variables in frozen are never
// eliminated (see presolver.frozen); a nil map freezes nothing.
func harvest(f Formula, pins map[Var]*big.Int, aliases map[Var]aliasTo, frozen map[Var]bool) (contradiction bool) {
	conjuncts := []Formula{f}
	if n, isNAry := f.(*NAry); isNAry && n.Op == OpAnd {
		conjuncts = n.Args
	}
	type rng struct {
		def    map[Var]*big.Int
		lo, hi *big.Int
	}
	ranges := map[string]*rng{}
	for _, c := range conjuncts {
		a, isAtom := c.(*Atom)
		if !isAtom || a.Op != LE || a.E.NumTerms() > 2 {
			continue
		}
		c, bnd, upper := canonAtom(a.E)
		r, ok := ranges[c.key]
		if !ok {
			r = &rng{def: c.def}
			ranges[c.key] = r
		}
		if upper {
			if r.hi == nil || bnd.Cmp(r.hi) < 0 {
				r.hi = bnd
			}
		} else {
			if r.lo == nil || bnd.Cmp(r.lo) > 0 {
				r.lo = bnd
			}
		}
	}
	keys := make([]string, 0, len(ranges))
	for k := range ranges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	taken := make(map[Var]bool) // vars already involved this round
	for _, k := range keys {
		r := ranges[k]
		if r.lo == nil || r.hi == nil {
			continue
		}
		if r.lo.Cmp(r.hi) > 0 {
			return true // crossing bounds: infeasible
		}
		if r.lo.Cmp(r.hi) != 0 {
			continue
		}
		val := r.lo
		switch len(r.def) {
		case 1:
			for v, co := range r.def {
				if taken[v] || frozen[v] {
					continue
				}
				// co is +1 or -1 after canonicalization of a unit comb;
				// skip combinations with larger coefficients.
				if co.CmpAbs(oneInt) != 0 {
					continue
				}
				pin := new(big.Int).Set(val)
				if co.Sign() < 0 {
					pin.Neg(pin)
				}
				pins[v] = pin
				taken[v] = true
			}
		case 2:
			vs := make([]Var, 0, 2)
			//lint:ordered two-element collect, ordered by the swap below
			for v := range r.def {
				vs = append(vs, v)
			}
			if vs[0] > vs[1] {
				vs[0], vs[1] = vs[1], vs[0]
			}
			v, w := vs[0], vs[1]
			cv, cw := r.def[v], r.def[w]
			if new(big.Int).Add(cv, cw).Sign() != 0 || cv.CmpAbs(oneInt) != 0 {
				continue // not a difference of two variables
			}
			// cv*(v - w) = val  =>  v = w + val/cv (cv is ±1).
			d := new(big.Int).Set(val)
			if cv.Sign() < 0 {
				d.Neg(d)
			}
			if !taken[v] && !frozen[v] {
				aliases[v] = aliasTo{w: w, d: d}
				taken[v] = true
				taken[w] = true
			} else if !taken[w] && !frozen[w] {
				aliases[w] = aliasTo{w: v, d: new(big.Int).Neg(d)}
				taken[w] = true
			}
		}
	}
	// Drop aliases whose target is itself rewritten this round (keeps
	// the round's substitution well-founded); they will be picked up in
	// a later round. Deletions are decided against the pre-drop map:
	// deciding and deleting in one pass would make the surviving set
	// depend on map iteration order for alias chains.
	var drop []Var
	//lint:ordered collects a delete set; deletion order is irrelevant
	for v, al := range aliases {
		if _, pinned := pins[al.w]; pinned {
			drop = append(drop, v)
			continue
		}
		if _, aliased := aliases[al.w]; aliased {
			drop = append(drop, v)
		}
	}
	for _, v := range drop {
		delete(aliases, v)
	}
	return false
}

// sortedPinVars returns the pin map's keys in increasing order.
func sortedPinVars(pins map[Var]*big.Int) []Var {
	out := make([]Var, 0, len(pins))
	for v := range pins {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedAliasVars returns the alias map's keys in increasing order.
func sortedAliasVars(aliases map[Var]aliasTo) []Var {
	out := make([]Var, 0, len(aliases))
	for v := range aliases {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// substitute rewrites f under the pin and alias maps, folding constant
// atoms and boolean structure.
func substitute(f Formula, pins map[Var]*big.Int, aliases map[Var]aliasTo) Formula {
	return substituteAt(f, pins, aliases, 0)
}

func substituteAt(f Formula, pins map[Var]*big.Int, aliases map[Var]aliasTo, depth int) Formula {
	checkFormulaDepth(depth)
	switch t := f.(type) {
	case Bool:
		return t
	case *Not:
		return Negate(substituteAt(t.F, pins, aliases, depth+1))
	case *NAry:
		args := make([]Formula, len(t.Args))
		for i, a := range t.Args {
			args[i] = substituteAt(a, pins, aliases, depth+1)
		}
		if t.Op == OpAnd {
			return And(args...)
		}
		return Or(args...)
	case *Atom:
		e := NewLin()
		e.AddConstBig(t.E.ConstPart())
		tmp := new(big.Int)
		for _, v := range t.E.Vars() {
			co := t.E.Coeff(v)
			if c, ok := pins[v]; ok {
				e.AddConstBig(tmp.Mul(co, c))
			} else if al, ok := aliases[v]; ok {
				e.AddTerm(al.w, co)
				e.AddConstBig(tmp.Mul(co, al.d))
			} else {
				e.AddTerm(v, co)
			}
		}
		if k, isConst := e.IsConst(); isConst {
			return Bool(evalRel(k, t.Op))
		}
		return &Atom{E: e, Op: t.Op}
	}
	// contract: the Formula node set is closed.
	panic("lia: unknown node in substitute")
}

// complete extends a model of the residue formula to the original
// variables by replaying the undo log in reverse.
func (ps *presolver) complete(m Model) {
	for i := len(ps.undo) - 1; i >= 0; i-- {
		u := ps.undo[i]
		if u.has {
			val := new(big.Int).Add(m.Value(u.alias), u.delta)
			m[u.v] = val
		} else {
			m[u.v] = new(big.Int).Set(u.delta)
		}
	}
}
