package lia

import (
	"repro/internal/engine"
	"repro/internal/sat"
)

// Session is a persistent DPLL(T) instance for the incremental
// refinement loop: the SAT solver, the simplex tableau, the atom and
// expression interning maps and the presolver live across rounds, so
// learned clauses, variable activity and slack definitions earned in
// round r keep working in round r+1. Solve is a session searched once.
//
// Formulas added with AddPersistent hold in every round. Each
// SolveRound(f) conjoins f under a fresh activation literal act_r —
// the clause (¬act_r ∨ f) — and solves under the assumptions
// {¬act_1, …, ¬act_{r-1}, act_r}, so superseded rounds are switched
// off without deleting anything. Atoms shared between rounds (the
// arithmetic backbone of a refinement sequence) are interned to the
// same SAT variables, which is what lets conflict clauses and simplex
// state transfer.
//
// Soundness of reuse: learned clauses are resolvents of the clause
// database (guarded clauses included), so they hold in every later
// round; theory conflict clauses and connectivity-cut lemmas are valid
// LIA facts over their own variables, which later rounds leave
// unconstrained. An unsatisfiable answer with a non-empty failed-
// assumption core refutes only the current round; an answer with an
// empty core means the persistent part itself is contradictory and the
// session is permanently dead (Dead reports this).
//
// A Session is not safe for concurrent use; in the solver each
// case-split branch owns one session.
type Session struct {
	opts Options
	ps   *presolver
	d    *dpllt    // nil until the first formula is encoded; see engine
	base []Formula // persistent formulas, for the defensive model check
	acts []sat.Lit // activation literal of round r at index r-1
	dead bool      // persistent part contradictory; every round is unsat

	lastPivots    int64
	lastRefactors int64
	lastAtoms     int64
}

// NewSession creates an empty session. The search budgets apply per
// SolveRound call; the context can be rebound per call.
func NewSession(opts *Options) *Session {
	s := &Session{ps: &presolver{}}
	if opts != nil {
		s.opts = *opts
	}
	return s
}

// engine returns the session's DPLL(T) engine, building it on first
// use: a Solve whose formula presolves to a constant never needs one.
func (s *Session) engine() *dpllt {
	if s.d != nil {
		return s.d
	}
	s.d = &dpllt{
		opts:  s.opts,
		sat:   sat.New(),
		exprs: make(map[string]*exprRec),
		vars:  make(map[Var]bool),
		ps:    s.ps,
		stats: s.opts.Ctx.Stats().Child("lia"),
	}
	s.d.sat.Budget = satConflictBudget
	s.d.sat.Ctx = s.opts.Ctx
	// Once a variable has been encoded it must never be presolved away:
	// its defining facts would vanish from the residue while its atoms
	// stay live. The engine's variable set is exactly that frontier.
	s.ps.frozen = s.d.vars
	return s.d
}

// Dead reports that the persistent part of the session is contradictory
// (every present and future round is unsatisfiable).
func (s *Session) Dead() bool { return s.dead }

// AddPersistent conjoins a formula that holds in every round. It runs
// the presolver on it (pins and aliases harvested here rewrite all
// later round formulas), so persistent facts should be added before the
// first SolveRound.
func (s *Session) AddPersistent(f Formula) { s.addPersistent(f) }

// addPersistent is AddPersistent returning the presolved residue of f,
// a Bool when presolve decided it.
func (s *Session) addPersistent(f Formula) Formula {
	if s.dead {
		return False
	}
	g := s.ps.apply(nnf(f, false))
	g = s.ps.run(g)
	g = s.ps.run(nnf(g, false))
	s.base = append(s.base, f)
	if b, ok := g.(Bool); ok {
		if !bool(b) {
			s.dead = true
		}
		return g
	}
	d := s.engine()
	root := d.encode(g, 0)
	d.sat.AddClause(root)
	if d.sx != nil {
		d.wireNewAtoms()
	}
	return g
}

// SolveRound conjoins f under a fresh activation literal, disables all
// previous rounds by assumption, and solves. onModel is this round's
// lazy-lemma screen (see Options.OnModel); lemmas it returns are kept
// for later rounds, which is sound because they are valid facts over
// round-local variables. ec, when non-nil, rebinds the deadline,
// cancellation and statistics sink for this call.
func (s *Session) SolveRound(f Formula, onModel func(Model) Formula, ec *engine.Ctx) (Result, Model) {
	if ec != nil {
		s.rebind(ec)
	}
	if s.dead {
		return ResUnsat, nil
	}
	d := s.engine()

	// Round-local presolve on a fork: the round formula gets the full
	// harvest-and-substitute treatment (minus already-encoded, frozen
	// variables), but its pins stay private to this round — the next
	// round forks from the persistent history again. The engine's
	// presolver pointer follows the fork so model completion and lazy
	// lemmas rewrite consistently.
	stopPresolve := d.stats.Time("time.presolve")
	psr := s.ps.fork(d.vars)
	g := psr.apply(nnf(f, false))
	g = psr.run(g)
	g = psr.run(nnf(g, false))
	d.ps = psr
	stopPresolve()
	if b, ok := g.(Bool); ok && !bool(b) {
		// The round formula is contradictory on its own; the session
		// (and its later rounds) are unaffected.
		return ResUnsat, nil
	}

	act := sat.MkLit(d.sat.NewVar(), false)
	s.acts = append(s.acts, act)
	root := d.encode(g, 0)
	d.sat.AddClause(act.Flip(), root)

	assume := make([]sat.Lit, len(s.acts))
	for i, a := range s.acts[:len(s.acts)-1] {
		assume[i] = a.Flip()
	}
	assume[len(s.acts)-1] = act
	return s.search(assume, f, onModel)
}

// search runs one DPLL(T) search under the given assumptions. It wires
// what encode added since the last search into the simplex, resets the
// per-call state, records the search statistics, and checks any model
// against round (when non-nil) and every persistent formula.
func (s *Session) search(assume []sat.Lit, round Formula, onModel func(Model) Formula) (Result, Model) {
	d := s.d
	if d.sx == nil {
		// First search: finish the one-time construction (the simplex
		// identity mapping covers every variable seen so far; later
		// arrivals get extra simplex ids on demand).
		d.initSimplex()
		d.atomOfVar = make(map[int]int, len(d.atoms))
		for i, a := range d.atoms {
			d.atomOfVar[a.satVar] = i
		}
		d.assertedPol = make([]int8, len(d.atoms))
		d.sat.Theory = d
	} else {
		d.wireNewAtoms()
	}
	d.sat.Assumptions = assume
	d.sat.Stats = d.opts.Ctx.Stats().Child("sat")

	// Per-call state: budgets are counted per Solve call by the SAT and
	// simplex layers; the abort flag, candidate model and model screen
	// are reset here.
	d.abort = false
	d.finalModel = nil
	d.opts.OnModel = onModel

	d.stats.Add("atoms", int64(len(d.atoms))-s.lastAtoms)
	s.lastAtoms = int64(len(d.atoms))
	stopSearch := d.stats.Time("time.search")
	defer func() {
		stopSearch()
		sxStats := d.opts.Ctx.Stats().Child("simplex")
		sxStats.Add("pivots", d.sx.Pivots-s.lastPivots)
		sxStats.Add("refactors", d.sx.Refactors-s.lastRefactors)
		s.lastPivots, s.lastRefactors = d.sx.Pivots, d.sx.Refactors
	}()

	switch d.sat.Solve() {
	case sat.Unsat:
		if d.sat.FailedAssumptions() == nil {
			// Unsat without assumptions: the persistent part (plus
			// always-valid learned facts) is itself contradictory.
			s.dead = true
		}
		return ResUnsat, nil
	case sat.Unknown:
		return ResUnknown, nil
	}
	return s.checkModel(round, d.finalModel)
}

// checkModel is the defensive model check: a model must satisfy the
// round formula (when non-nil) and every persistent formula.
func (s *Session) checkModel(round Formula, m Model) (Result, Model) {
	if m == nil {
		return ResUnknown, nil
	}
	if round != nil && !Eval(round, m) {
		return ResUnknown, nil
	}
	for _, b := range s.base {
		if !Eval(b, m) {
			return ResUnknown, nil
		}
	}
	return ResSat, m
}

// rebind points the session at a new context: deadline, cancellation
// and the statistics sinks all follow, so each refinement round's work
// is recorded under that round's stats subtree.
func (s *Session) rebind(ec *engine.Ctx) {
	s.opts.Ctx = ec
	if s.d == nil {
		return
	}
	s.d.opts.Ctx = ec
	s.d.sat.Ctx = ec
	s.d.stats = ec.Stats().Child("lia")
	if s.d.sx != nil {
		s.d.sx.Ctx = ec
	}
}

// wireNewAtoms connects everything encode added since the last call:
// new linear combinations get simplex variables, new atoms enter the
// polarity and sat-var maps, and new identity-mapped variables are
// registered with branch and bound. (Shared with the lazy-lemma path.)
func (d *dpllt) wireNewAtoms() {
	d.defineExprs()
	for len(d.assertedPol) < len(d.atoms) {
		d.assertedPol = append(d.assertedPol, 0)
	}
	for i, a := range d.atoms {
		if _, ok := d.atomOfVar[a.satVar]; !ok {
			d.atomOfVar[a.satVar] = i
		}
	}
	for _, v := range sortedVars(d.vars) {
		if int(v) < d.identityLimit {
			d.registerIntVar(int(v))
		}
	}
}
