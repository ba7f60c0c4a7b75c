// Package simplex implements a general simplex procedure for
// conjunctions of linear-arithmetic bounds in the style of Dutertre and
// de Moura ("A fast linear-arithmetic solver for DPLL(T)", CAV 2006),
// with exact rational arithmetic, pushed/popped bound frames, Farkas-style
// conflict explanations, and a branch-and-bound layer for integrality.
//
// It is the theory backend of the DPLL(T) loop in package lia.
//
// Assignment values and bounds run on the rval machine-word fast path
// (rat64.go): int64 num/den pairs that promote to exact big.Rat on
// overflow. Tableau rows are fraction-free: sorted sparse int64
// numerators over one positive row denominator, so a pivot rewrites the
// pivot row with sign changes and a slot move and substitutes it into
// the other rows with checked multiplies, without reducing every
// coefficient by its own gcds. A row whose integer form would overflow
// falls back to per-coefficient rvals until it fits again. Per-solver
// scratch buffers keep the pivot loop allocation-free, and Check scans
// only the basic variables touched since it last found them in bounds.
package simplex

import (
	"math/big"
	"sort"

	"repro/internal/engine"
)

// NoTag marks bounds that do not correspond to an asserted atom (for
// example branch-and-bound split bounds); conflicts involving such a
// bound cannot be explained in terms of input atoms alone.
const NoTag = -1

type bound struct {
	val rval
	tag int
	set bool
}

// srow is one tableau row: a sparse linear form over nonbasic
// variables, as parallel slices sorted by variable id. It has one of
// two forms.
//
// In integer form (den > 0) the coefficient at position p is
// num[p]/den: int64 numerators over one positive row denominator, in
// lowest terms (gcd(den, num[0], num[1], ...) == 1), and no numerator is
// MinInt64, so negating one cannot overflow.
//
// In rational form (den == 0) the coefficient at position p is coef[p].
// A row takes this form when its integer form would overflow int64, and
// every row does under ForceSlowPath. A rational row returns to integer
// form as soon as it fits. Coefficient slots are owned by the row (see
// the rval copy discipline); num is scratch while the row is rational.
type srow struct {
	idx  []int32
	num  []int64
	den  int64
	coef []rval
}

// find returns the position of v in r.idx, or -1. Rows are short, so a
// linear scan with early exit beats binary search in practice and is
// friendlier to the prefetcher.
func (r *srow) find(v int32) int {
	for p, k := range r.idx {
		if k >= v {
			if k == v {
				return p
			}
			return -1
		}
	}
	return -1
}

// sign returns the sign of the coefficient at position p.
func (r *srow) sign(p int) int {
	if r.den == 0 {
		return r.coef[p].sign()
	}
	switch n := r.num[p]; {
	case n > 0:
		return 1
	case n < 0:
		return -1
	}
	return 0
}

// coefAt returns the coefficient at position p as an rval: the row's
// own slot in rational form, otherwise buf set to num[p]/den reduced.
// The result is read-only.
func (r *srow) coefAt(p int, buf *rval) *rval {
	if r.den == 0 {
		return &r.coef[p]
	}
	buf.n, buf.d = reduce64(r.num[p], r.den)
	buf.isWide = false
	return buf
}

// toRational switches an integer-form row to rational form.
func (r *srow) toRational() {
	r.coef = r.coef[:0]
	for _, n := range r.num {
		r.coef = append(r.coef, rval{})
		c := &r.coef[len(r.coef)-1]
		c.n, c.d = reduce64(n, r.den)
	}
	r.den = 0
}

// narrow switches a rational-form row to integer form when every
// coefficient is narrow and the row fits over the least common
// denominator. Reduced coefficients over their lcm are in lowest terms
// as a row, so no further gcd is needed. Under ForceSlowPath rows stay
// rational.
func (r *srow) narrow() {
	if ForceSlowPath || r.den != 0 {
		return
	}
	l := int64(1)
	for p := range r.coef {
		c := &r.coef[p]
		if c.isWide {
			return
		}
		g := int64(gcd64(uint64(l), uint64(c.d)))
		var ok bool
		if l, ok = mul64(l, c.d/g); !ok {
			return
		}
	}
	r.num = r.num[:0]
	for p := range r.coef {
		c := &r.coef[p]
		n, ok := mul64(c.n, l/c.d)
		if !ok || n == minInt64 {
			return
		}
		r.num = append(r.num, n)
	}
	r.den = l
	r.coef = nil
}

// Solver holds a simplex tableau over variables identified by small
// integers. Create one with New, define slack variables with
// DefineSlack, assert bounds, and call Check.
type Solver struct {
	n     int // number of variables
	beta  []rval
	lower []bound
	upper []bound

	rows []*srow   // basic var -> its row (nil when nonbasic)
	cols [][]int32 // nonbasic var -> unsorted basic rows containing it

	// defs keeps each slack's original definition over problem
	// variables so the tableau can be refactorized (rebuilt) when
	// pivoting fill-in makes the rows too dense.
	defs         map[int]map[int]*big.Int
	baseTerms    int
	lastRefactor int64

	// Scratch buffers for the pivot substitution merge, its column
	// updates and the column snapshot, reused across pivots so the hot
	// loop does not allocate.
	mergeIdx   []int32
	mergeNum   []int64
	mergeCoef  []rval
	mergeAdd   []int32
	mergeDel   []int32
	colScratch []int32

	// Bound changes are undone through a trail so Push is O(1).
	undo   []boundChange
	frames []int // marks into undo

	// cand lists, without repeats, the basic variables whose value or
	// bounds changed since Check last found them in bounds (inCand
	// marks the members). Every basic variable outside it is within its
	// bounds, so Check scans only the list, and an empty list makes a
	// Check call O(1): asserting a bound on a nonbasic variable keeps
	// the tableau feasible (the assignment is updated in place).
	cand   []int32
	inCand []bool

	// Pivots counts pivot operations, for diagnostics and budgets.
	Pivots int64
	// Refactors counts tableau refactorizations, for diagnostics.
	Refactors int64
	// PivotBudget, when positive, bounds the pivots per Check call.
	PivotBudget int64
	// Ctx, when non-nil, aborts Check (with a budget conflict) once the
	// context stops; polled once per pivot iteration.
	Ctx *engine.Ctx
}

type boundChange struct {
	v     int
	upper bool
	old   bound
}

// New returns a solver with n problem variables (ids 0..n-1).
func New(n int) *Solver {
	s := &Solver{
		n:    n,
		defs: make(map[int]map[int]*big.Int),
	}
	s.beta = make([]rval, n)
	for i := range s.beta {
		s.beta[i].d = 1 // value 0; the zero rval is not a valid rational
	}
	s.lower = make([]bound, n)
	s.upper = make([]bound, n)
	s.rows = make([]*srow, n)
	s.cols = make([][]int32, n)
	s.inCand = make([]bool, n)
	return s
}

// NumVars reports the number of variables including slack variables.
func (s *Solver) NumVars() int { return s.n }

// EnsureVars grows the variable space so ids 0..n-1 are valid. New
// variables are unbounded with value 0. Intended for callers that add
// constraints incrementally (lazy lemmas).
func (s *Solver) EnsureVars(n int) {
	if n <= s.n {
		return
	}
	s.Ctx.Charge("simplex tableau", int64(n-s.n))
	for i := s.n; i < n; i++ {
		s.beta = append(s.beta, rval{d: 1})
		s.lower = append(s.lower, bound{})
		s.upper = append(s.upper, bound{})
		s.rows = append(s.rows, nil)
		s.cols = append(s.cols, nil)
		s.inCand = append(s.inCand, false)
	}
	s.n = n
}

// DefineSlack introduces a new variable constrained to equal
// sum(def[v] * v) and returns its id. The new variable starts basic.
// The definition must be over problem variables (not other slacks) so
// refactorization can rebuild the tableau from definitions.
func (s *Solver) DefineSlack(def map[int]*big.Int) int {
	id := s.n
	s.n++
	s.lower = append(s.lower, bound{})
	s.upper = append(s.upper, bound{})
	s.inCand = append(s.inCand, false)
	stored := make(map[int]*big.Int, len(def))
	for v, c := range def {
		if _, isSlack := s.defs[v]; isSlack {
			// contract: lia defines slacks over problem variables only.
			panic("simplex: slack definition may not reference another slack")
		}
		stored[v] = new(big.Int).Set(c)
	}
	s.defs[id] = stored

	// Accumulate the row over nonbasic variables, substituting the rows
	// of definition variables that are currently basic. Exact arithmetic
	// makes the accumulation order-independent.
	acc := make(map[int]*rval)
	accAdd := func(w int, c *rval) {
		if cur, ok := acc[w]; ok {
			cur.add(c)
		} else {
			nv := new(rval)
			nv.set(c)
			acc[w] = nv
		}
	}
	var rc, t, buf rval
	for v, c := range def {
		if c.Sign() == 0 {
			continue
		}
		rc.setBigInt(c)
		if br := s.rows[v]; br != nil {
			for p, k := range br.idx {
				t.mul(&rc, br.coefAt(p, &buf))
				accAdd(int(k), &t)
			}
		} else {
			accAdd(v, &rc)
		}
	}
	keys := make([]int, 0, len(acc))
	for w := range acc {
		keys = append(keys, w)
	}
	sort.Ints(keys)
	row := &srow{
		idx:  make([]int32, 0, len(acc)),
		coef: make([]rval, 0, len(acc)),
	}
	var val rval
	val.setInt64(0)
	for _, w := range keys {
		cw := acc[w]
		if cw.sign() == 0 {
			continue
		}
		row.idx = append(row.idx, int32(w))
		row.coef = append(row.coef, *cw) // acc owns cw; ownership moves to the row
		val.addMul(cw, &s.beta[w])
		s.colAdd(w, id)
	}
	row.narrow()
	s.beta = append(s.beta, val) // val is dead after this; the slot takes ownership
	s.rows = append(s.rows, row)
	s.cols = append(s.cols, nil)
	s.baseTerms += len(stored)
	// Bill the new row against the resource budget: tableau growth is a
	// known memory blow-up site. A trip stops the Ctx; the next Check
	// observes it and returns a budget conflict, so the caller unwinds
	// with UNKNOWN rather than growing the tableau further.
	s.Ctx.Charge("simplex tableau", int64(len(row.idx)+len(stored)))
	return id
}

// refactorize rebuilds the tableau from the slack definitions, undoing
// accumulated pivot fill-in: every slack becomes basic again, every
// problem variable nonbasic. Problem variables whose current value
// drifted outside their bounds (they were basic) are clamped back,
// propagating through the fresh rows.
func (s *Solver) refactorize() {
	for r := range s.rows {
		s.rows[r] = nil
	}
	for v := range s.cols {
		s.cols[v] = s.cols[v][:0]
	}
	for _, r := range s.cand {
		s.inCand[r] = false
	}
	s.cand = s.cand[:0]
	ids := make([]int, 0, len(s.defs))
	for id := range s.defs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var rc rval
	for _, id := range ids {
		def := s.defs[id]
		vs := make([]int, 0, len(def))
		for v := range def {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		row := &srow{
			idx:  make([]int32, 0, len(def)),
			coef: make([]rval, 0, len(def)),
		}
		var val rval
		val.setInt64(0)
		for _, v := range vs {
			rc.setBigInt(def[v])
			row.idx = append(row.idx, int32(v))
			row.coef = append(row.coef, rval{})
			row.coef[len(row.coef)-1].set(&rc)
			s.colAdd(v, id)
			val.addMul(&rc, &s.beta[v])
		}
		row.narrow()
		s.rows[id] = row
		s.beta[id].set(&val)
		s.addCand(id)
	}
	// Restore the nonbasic-within-bounds invariant for problem vars.
	for v := 0; v < s.n; v++ {
		if _, isSlack := s.defs[v]; isSlack {
			continue
		}
		if s.lower[v].set && s.beta[v].cmp(&s.lower[v].val) < 0 {
			s.update(v, &s.lower[v].val)
		} else if s.upper[v].set && s.beta[v].cmp(&s.upper[v].val) > 0 {
			s.update(v, &s.upper[v].val)
		}
	}
}

// maybeRefactorize rebuilds the tableau when fill-in has grown it far
// beyond its definition size, at most once per pivot interval (frequent
// rebuilds would discard useful basis progress).
func (s *Solver) maybeRefactorize() {
	if s.Pivots-s.lastRefactor < 2000 { //lint:nooverflow Pivots is a monotone counter far below int64 range
		return
	}
	total := 0
	for _, row := range s.rows {
		if row != nil {
			total += len(row.idx)
		}
	}
	if total > 6*s.baseTerms+1024 {
		s.refactorize()
		s.Refactors++ //lint:nooverflow diagnostic counter, bounded by Pivots/2000
		s.lastRefactor = s.Pivots
	}
}

func (s *Solver) colAdd(v, row int) {
	s.cols[v] = append(s.cols[v], int32(row))
}

func (s *Solver) colDel(v, row int) {
	c := s.cols[v]
	for p, r := range c {
		if r == int32(row) {
			c[p] = c[len(c)-1]
			s.cols[v] = c[:len(c)-1]
			return
		}
	}
}

// addCand puts basic variable r on Check's candidate list.
func (s *Solver) addCand(r int) {
	if !s.inCand[r] {
		s.inCand[r] = true
		s.cand = append(s.cand, int32(r))
	}
}

// Push saves the current bound state so a later Pop can restore it.
func (s *Solver) Push() {
	s.frames = append(s.frames, len(s.undo))
}

// Pop restores the bounds saved by the matching Push by replaying the
// undo trail. The tableau and assignment are unchanged (rows are
// equivalences and the assignment satisfied the tighter bounds, hence
// also the restored looser ones when the frame was feasible).
func (s *Solver) Pop() {
	mark := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	for i := len(s.undo) - 1; i >= mark; i-- {
		c := s.undo[i]
		if c.upper {
			s.upper[c.v] = c.old
		} else {
			s.lower[c.v] = c.old
		}
	}
	s.undo = s.undo[:mark]
}

// Conflict is a set of atom tags whose conjunction is infeasible. If
// Tainted is true the conflict involves an internal bound (NoTag) and
// the tags alone do not explain the infeasibility.
type Conflict struct {
	Tags    []int
	Tainted bool
	// Budget is true when the conflict is not a real infeasibility but
	// an exhausted pivot budget; the caller must report unknown.
	Budget bool
}

// AssertUpper adds the bound v <= c (tagged with the originating atom).
// It returns a non-nil conflict if the bound contradicts the current
// lower bound of v.
func (s *Solver) AssertUpper(v int, c *big.Rat, tag int) *Conflict {
	var cv rval
	cv.setRat(c)
	return s.assertUpper(v, &cv, tag)
}

// AssertUpperNum is AssertUpper taking a precomputed Num, so hot
// callers (branch and bound, the lia atom dispatcher) assert without
// converting through big.Rat.
func (s *Solver) AssertUpperNum(v int, c Num, tag int) *Conflict {
	return s.assertUpper(v, &c.rv, tag)
}

func (s *Solver) assertUpper(v int, c *rval, tag int) *Conflict {
	if s.lower[v].set && s.lower[v].val.cmp(c) > 0 {
		nb := bound{tag: tag, set: true}
		nb.val.set(c)
		return s.mkConflict([]bound{s.lower[v], nb})
	}
	if s.upper[v].set && s.upper[v].val.cmp(c) <= 0 {
		return nil // existing bound at least as tight
	}
	if len(s.frames) > 0 {
		s.undo = append(s.undo, boundChange{v: v, upper: true, old: s.upper[v]})
	}
	nb := bound{tag: tag, set: true}
	nb.val.set(c)
	s.upper[v] = nb
	if s.beta[v].cmp(c) > 0 {
		if s.rows[v] != nil {
			s.addCand(v)
		} else {
			s.update(v, c)
		}
	}
	return nil
}

// AssertLower adds the bound v >= c.
func (s *Solver) AssertLower(v int, c *big.Rat, tag int) *Conflict {
	var cv rval
	cv.setRat(c)
	return s.assertLower(v, &cv, tag)
}

// AssertLowerNum is AssertLower taking a precomputed Num.
func (s *Solver) AssertLowerNum(v int, c Num, tag int) *Conflict {
	return s.assertLower(v, &c.rv, tag)
}

func (s *Solver) assertLower(v int, c *rval, tag int) *Conflict {
	if s.upper[v].set && s.upper[v].val.cmp(c) < 0 {
		nb := bound{tag: tag, set: true}
		nb.val.set(c)
		return s.mkConflict([]bound{s.upper[v], nb})
	}
	if s.lower[v].set && s.lower[v].val.cmp(c) >= 0 {
		return nil
	}
	if len(s.frames) > 0 {
		s.undo = append(s.undo, boundChange{v: v, upper: false, old: s.lower[v]})
	}
	nb := bound{tag: tag, set: true}
	nb.val.set(c)
	s.lower[v] = nb
	if s.beta[v].cmp(c) < 0 {
		if s.rows[v] != nil {
			s.addCand(v)
		} else {
			s.update(v, c)
		}
	}
	return nil
}

func (s *Solver) mkConflict(bs []bound) *Conflict {
	c := &Conflict{}
	seen := make(map[int]bool)
	for _, b := range bs {
		if b.tag == NoTag {
			c.Tainted = true
			continue
		}
		if !seen[b.tag] {
			seen[b.tag] = true
			c.Tags = append(c.Tags, b.tag)
		}
	}
	sort.Ints(c.Tags)
	return c
}

// update sets the value of nonbasic variable j to v, adjusting all
// basic variables whose rows mention j. Adjusted basic variables may
// leave their bounds, so they become Check candidates.
func (s *Solver) update(j int, v *rval) {
	var theta, buf rval
	theta.sub(v, &s.beta[j])
	for _, r32 := range s.cols[j] {
		r := int(r32)
		row := s.rows[r]
		p := row.find(int32(j))
		if p < 0 {
			continue
		}
		s.beta[r].addMul(row.coefAt(p, &buf), &theta)
		s.addCand(r)
	}
	s.beta[j].set(v)
}

// pivotAndUpdate makes nonbasic j basic in place of basic i, setting
// x_i's value to v (one of its violated bounds).
func (s *Solver) pivotAndUpdate(i, j int, v *rval) {
	s.Pivots++ //lint:nooverflow monotone diagnostic counter; budgets trip long before int64 wraps
	rowI := s.rows[i]
	var theta, buf rval
	theta.sub(v, &s.beta[i])
	theta.div(&theta, rowI.coefAt(rowI.find(int32(j)), &buf))
	s.beta[i].set(v)
	s.beta[j].add(&theta)
	s.addCand(j)
	s.pivot(i, j, &theta)
}

// pivot swaps basic i with nonbasic j. When theta is non-nil, x_j
// moved by theta, and every other row containing j has its basic value
// adjusted before x_j is substituted out of it.
func (s *Solver) pivot(i, j int, theta *rval) {
	row := s.rows[i]
	pj := row.find(int32(j))
	// Solve for x_j. The transform happens in place: row becomes x_j's
	// row, and the rotation below stores x_i's coefficient (lead in
	// integer form, inv in rational form) at x_i's sorted position.
	var lead int64
	var inv rval
	if row.den > 0 {
		// x_i = sum(num[p] x_p)/den, so x_j = (den x_i - sum_{p != j}
		// num[p] x_p)/num[pj]: the numerators change sign when num[pj]
		// is positive, and den moves into x_i's slot. The row keeps its
		// gcd, so it stays in lowest terms.
		a := row.num[pj]
		lead = row.den
		if a > 0 {
			for p := range row.num {
				row.num[p] = -row.num[p] //lint:nooverflow integer-form numerators are never MinInt64
			}
		} else {
			a = -a       //lint:nooverflow integer-form numerators are never MinInt64
			lead = -lead //lint:nooverflow den is positive
		}
		row.den = a
	} else {
		// x_j = (1/aij) x_i - sum_{k != j} (a_ik/aij) x_k.
		inv.inv(&row.coef[pj])
		for p := range row.coef {
			if p != pj {
				row.coef[p].mulNeg(&row.coef[p], &inv)
			}
		}
	}
	for p, k := range row.idx {
		if p != pj {
			s.colDel(int(k), i)
			s.colAdd(int(k), j)
		}
	}
	// Snapshot j's column before clearing it: these are the rows that
	// need x_j substituted away.
	s.colScratch = append(s.colScratch[:0], s.cols[j]...)
	s.cols[j] = s.cols[j][:0]
	// Rotate the j slot to i's sorted position and store x_i's
	// coefficient there.
	ii := int32(i)
	q := pj
	if ii < row.idx[pj] {
		//lint:nopoll bounded: q strictly decreases toward 0
		for q > 0 && row.idx[q-1] > ii {
			q--
		}
		copy(row.idx[q+1:pj+1], row.idx[q:pj])
		if row.den > 0 {
			copy(row.num[q+1:pj+1], row.num[q:pj])
		} else {
			copy(row.coef[q+1:pj+1], row.coef[q:pj])
		}
	} else {
		//lint:nopoll bounded: q strictly increases toward len(row.idx)
		for q+1 < len(row.idx) && row.idx[q+1] < ii {
			q++
		}
		copy(row.idx[pj:q], row.idx[pj+1:q+1])
		if row.den > 0 {
			copy(row.num[pj:q], row.num[pj+1:q+1])
		} else {
			copy(row.coef[pj:q], row.coef[pj+1:q+1])
		}
	}
	row.idx[q] = ii
	if row.den > 0 {
		row.num[q] = lead
	} else {
		// The shift left slot q sharing its wide pointer with a
		// neighbour; overwriting it with inv (dead after this) restores
		// the copy discipline.
		row.coef[q] = inv
		row.narrow()
	}
	s.colAdd(i, j)
	s.rows[j] = row
	s.rows[i] = nil
	// Pivot fill-in is the other way the tableau grows; bill the cells
	// so dense instances trip the budget instead of exhausting memory.
	s.Ctx.Charge("simplex tableau", int64(len(row.idx)))

	// Substitute x_j's definition into every other row containing j.
	var buf rval
	for _, r32 := range s.colScratch {
		r := int(r32)
		if r == i {
			continue
		}
		rr := s.rows[r]
		prj := rr.find(int32(j))
		if prj < 0 {
			continue
		}
		if theta != nil {
			s.beta[r].addMul(rr.coefAt(prj, &buf), theta)
			s.addCand(r)
		}
		if rr.den > 0 && row.den > 0 && s.mergeScaled(r, rr, prj, row) {
			continue
		}
		// The kept path: merge on rvals, then return to integer form if
		// the result fits.
		if rr.den > 0 {
			rr.toRational()
		}
		s.mergeScaledRat(r, rr, prj, row)
		rr.narrow()
	}
}

// mergeScaled rewrites row rr (basic in r) as rr minus its x_j term
// plus f*src, where f is rr's coefficient at position pj (the x_j term
// being eliminated) and src is x_j's new row; src never contains x_j.
// Both rows are in integer form: with rr = (sum a_k x_k)/da, src =
// (sum b_k x_k)/db and g = gcd(a_j, db), the result is
// (sum (db/g) a_k x_k + (a_j/g) b_k x_k)/(da db/g), divided by the gcd
// of the row, which a running gcd finds (it stops once it reaches 1).
// The merge goes into the solver scratch, whose arrays then swap with
// the row's. It reports false, leaving rr and the column index
// untouched, when a value would overflow int64 or be MinInt64.
func (s *Solver) mergeScaled(r int, rr *srow, pj int, src *srow) bool {
	f := rr.num[pj]
	g := int64(gcd64(absU64(f), uint64(src.den)))
	ma, mb := src.den/g, f/g // multipliers of rr's and src's numerators
	den, ok := mul64(rr.den, ma)
	if !ok {
		return false
	}
	rowGcd := uint64(den)
	mi := s.mergeIdx[:0]
	mn := s.mergeNum[:0]
	added := s.mergeAdd[:0]
	deleted := s.mergeDel[:0]
	pa, pb := 0, 0
	//lint:nopoll bounded: two-pointer merge, pa+pb strictly increases every iteration
	for pa < len(rr.idx) || pb < len(src.idx) {
		if pa == pj {
			pa++
			continue
		}
		aLeft := pa < len(rr.idx)
		bLeft := pb < len(src.idx)
		var k int32
		var v int64
		switch {
		case aLeft && (!bLeft || rr.idx[pa] < src.idx[pb]):
			k = rr.idx[pa]
			v, ok = mul64(rr.num[pa], ma)
			pa++
		case bLeft && (!aLeft || src.idx[pb] < rr.idx[pa]):
			// A variable new to this row; f and src's numerators are
			// nonzero, so the product cannot cancel.
			k = src.idx[pb]
			v, ok = mul64(src.num[pb], mb)
			added = append(added, k)
			pb++
		default: // same variable in both
			k = rr.idx[pa]
			var t1, t2 int64
			var ok1, ok2 bool
			t1, ok1 = mul64(rr.num[pa], ma)
			t2, ok2 = mul64(src.num[pb], mb)
			v, ok = add64(t1, t2)
			ok = ok && ok1 && ok2
			pa++
			pb++
			if ok && v == 0 {
				deleted = append(deleted, k)
				continue
			}
		}
		if !ok || v == minInt64 {
			s.mergeIdx, s.mergeNum = mi[:0], mn[:0]
			s.mergeAdd, s.mergeDel = added[:0], deleted[:0]
			return false
		}
		if rowGcd != 1 {
			rowGcd = gcd64(rowGcd, absU64(v))
		}
		mi = append(mi, k)
		mn = append(mn, v)
	}
	if rowGcd != 1 {
		d := int64(rowGcd)
		for p := range mn {
			mn[p] /= d
		}
		den /= d
	}
	for _, k := range added {
		s.colAdd(int(k), r)
	}
	for _, k := range deleted {
		s.colDel(int(k), r)
	}
	// Swap: the merged form becomes the row; the row's old arrays become
	// the next merge's scratch.
	oldIdx, oldNum := rr.idx, rr.num
	rr.idx, rr.num, rr.den = mi, mn, den
	s.mergeIdx, s.mergeNum = oldIdx[:0], oldNum[:0]
	s.mergeAdd, s.mergeDel = added[:0], deleted[:0]
	return true
}

// mergeScaledRat is mergeScaled on a rational-form rr (src may have
// either form), computed on rvals: the path for rows whose integer form
// would overflow, and for every row under ForceSlowPath.
func (s *Solver) mergeScaledRat(r int, rr *srow, pj int, src *srow) {
	f := &rr.coef[pj] // rr's arrays are read-only until the swap below
	mi := s.mergeIdx[:0]
	mc := s.mergeCoef[:0]
	var buf rval
	pa, pb := 0, 0
	//lint:nopoll bounded: two-pointer merge, pa+pb strictly increases every iteration
	for pa < len(rr.idx) || pb < len(src.idx) {
		if pa == pj {
			pa++
			continue
		}
		aLeft := pa < len(rr.idx)
		bLeft := pb < len(src.idx)
		switch {
		case aLeft && (!bLeft || rr.idx[pa] < src.idx[pb]):
			mi = append(mi, rr.idx[pa])
			mc = append(mc, rval{})
			mc[len(mc)-1].set(&rr.coef[pa])
			pa++
		case bLeft && (!aLeft || src.idx[pb] < rr.idx[pa]):
			// A variable new to this row; f and src coefficients are
			// nonzero, so the product cannot cancel.
			mi = append(mi, src.idx[pb])
			mc = append(mc, rval{})
			mc[len(mc)-1].mul(f, src.coefAt(pb, &buf))
			s.colAdd(int(src.idx[pb]), r)
			pb++
		default: // same variable in both
			mc = append(mc, rval{})
			d := &mc[len(mc)-1]
			d.set(&rr.coef[pa])
			d.addMul(f, src.coefAt(pb, &buf))
			if d.sign() == 0 {
				mc = mc[:len(mc)-1]
				s.colDel(int(rr.idx[pa]), r)
			} else {
				mi = append(mi, rr.idx[pa])
			}
			pa++
			pb++
		}
	}
	// Swap: the merged form becomes the row; the row's old arrays become
	// the next merge's scratch. Every merged slot was written via
	// set/mul (deep copies), so no slot shares a wide with the old row.
	oldIdx, oldCoef := rr.idx, rr.coef
	rr.idx, rr.coef = mi, mc
	s.mergeIdx, s.mergeCoef = oldIdx[:0], oldCoef[:0]
}

// Check restores feasibility of the current bounds. It returns nil on
// success, or a conflict explaining infeasibility. On success every
// variable's value (Value) respects its bounds.
func (s *Solver) Check() *Conflict {
	if len(s.cand) == 0 {
		return nil
	}
	s.maybeRefactorize()
	pivotsAtStart := s.Pivots
	// Heuristic rule (largest violation) first; pure Bland's rule after
	// a while to guarantee termination despite potential cycling.
	blandAfter := pivotsAtStart + 500 //lint:nooverflow monotone counter far below int64 range
	var viol, worst rval
	for {
		if s.PivotBudget > 0 && s.Pivots-pivotsAtStart > s.PivotBudget { //lint:nooverflow monotone counter difference
			return &Conflict{Tainted: true, Budget: true}
		}
		if s.Ctx.Poll() {
			return &Conflict{Tainted: true, Budget: true}
		}
		bland := s.Pivots >= blandAfter
		i := -1
		var needLower bool
		// Scan the candidates, dropping those now nonbasic or within
		// their bounds. The pick is the one an ascending scan of every
		// basic variable would make: the largest violation with ties to
		// the smallest id, or under Bland's rule the smallest violated id.
		w := 0
		for _, r32 := range s.cand {
			r := int(r32)
			var below bool
			if s.rows[r] == nil {
				s.inCand[r] = false
				continue
			}
			if s.lower[r].set && s.beta[r].cmp(&s.lower[r].val) < 0 {
				below = true
			} else if !(s.upper[r].set && s.beta[r].cmp(&s.upper[r].val) > 0) {
				s.inCand[r] = false
				continue
			}
			s.cand[w] = r32
			w++
			if bland {
				if i == -1 || r < i {
					i, needLower = r, below
				}
				continue
			}
			if below {
				viol.sub(&s.lower[r].val, &s.beta[r])
			} else {
				viol.sub(&s.beta[r], &s.upper[r].val)
			}
			if i != -1 {
				if c := viol.cmp(&worst); c < 0 || c == 0 && r > i {
					continue
				}
			}
			worst.set(&viol)
			i, needLower = r, below
		}
		s.cand = s.cand[:w]
		if i == -1 {
			return nil
		}
		row := s.rows[i]
		// Eligible nonbasic selection: under Bland's rule the smallest
		// index (termination guarantee); otherwise the one appearing in
		// the fewest rows (Markowitz-style, minimizes pivot fill-in).
		// Rows are sorted by variable id, so the ascending scan gives
		// smallest-index tie-breaks for free.
		j := -1
		jCost := 0
		for p, k32 := range row.idx {
			k := int(k32)
			sg := row.sign(p)
			var ok bool
			if needLower {
				// x_i must increase.
				ok = sg > 0 && (!s.upper[k].set || s.beta[k].cmp(&s.upper[k].val) < 0) ||
					sg < 0 && (!s.lower[k].set || s.beta[k].cmp(&s.lower[k].val) > 0)
			} else {
				// x_i must decrease.
				ok = sg < 0 && (!s.upper[k].set || s.beta[k].cmp(&s.upper[k].val) < 0) ||
					sg > 0 && (!s.lower[k].set || s.beta[k].cmp(&s.lower[k].val) > 0)
			}
			if !ok {
				continue
			}
			if bland {
				j = k
				break // first eligible in ascending order is the smallest
			}
			cost := len(s.cols[k])
			if j == -1 || cost < jCost {
				j, jCost = k, cost
			}
		}
		if j == -1 {
			// Infeasible: explain with the bound of i and the blocking
			// bounds of all row variables, in ascending variable order.
			bs := make([]bound, 0, len(row.idx)+1)
			if needLower {
				bs = append(bs, s.lower[i])
			} else {
				bs = append(bs, s.upper[i])
			}
			for p, k32 := range row.idx {
				k := int(k32)
				pos := row.sign(p) > 0
				if needLower == pos {
					bs = append(bs, s.upper[k])
				} else {
					bs = append(bs, s.lower[k])
				}
			}
			return s.mkConflict(bs)
		}
		if needLower {
			s.pivotAndUpdate(i, j, &s.lower[i].val)
		} else {
			s.pivotAndUpdate(i, j, &s.upper[i].val)
		}
	}
}

// Value returns the current value of variable v as a fresh big.Rat.
// Valid after a successful Check.
func (s *Solver) Value(v int) *big.Rat {
	return s.beta[v].rat()
}

// ValueIsInt reports whether variable v currently has an integer value,
// without materializing a big.Rat.
func (s *Solver) ValueIsInt(v int) bool {
	return s.beta[v].isInt()
}

// ValueFloor returns floor(value of v) as a Num, allocation-free on the
// fast path.
func (s *Solver) ValueFloor(v int) Num {
	var n Num
	x := &s.beta[v]
	if !x.isWide {
		q := x.n / x.d
		if x.n%x.d != 0 && x.n < 0 {
			q-- //lint:nooverflow a nonzero remainder implies d >= 2, so |q| < 2^62
		}
		n.rv.setInt64(q)
		return n
	}
	var f big.Int
	x.floorInt(&f)
	n.rv.setBigInt(&f)
	return n
}

// ValueInt returns the current (integer) value of v as a fresh big.Int.
// The caller must know the value is integral (ValueIsInt).
func (s *Solver) ValueInt(v int) *big.Int {
	return s.beta[v].intInto(new(big.Int))
}

// IsBasic reports whether v is currently basic (useful in tests).
func (s *Solver) IsBasic(v int) bool {
	return s.rows[v] != nil
}
