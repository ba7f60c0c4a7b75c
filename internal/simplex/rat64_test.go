package simplex

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"testing"
)

// ratOf returns the rval's value as a big.Rat without touching its
// representation.
func ratOf(x *rval) *big.Rat { return x.rat() }

func TestCheckedHelpers(t *testing.T) {
	cases := []struct {
		a, b int64
	}{
		{0, 0}, {1, -1}, {math.MaxInt64, 1}, {math.MinInt64, -1},
		{math.MinInt64, math.MinInt64}, {math.MaxInt64, math.MaxInt64},
		{math.MinInt64 / 2, 2}, {3037000499, 3037000499}, // isqrt(MaxInt64) boundary
		{-3037000500, 3037000500}, {1 << 31, 1 << 32},
	}
	for _, c := range cases {
		bigA, bigB := big.NewInt(c.a), big.NewInt(c.b)
		if got, ok := add64(c.a, c.b); ok {
			if want := new(big.Int).Add(bigA, bigB); !want.IsInt64() || want.Int64() != got {
				t.Errorf("add64(%d,%d) = %d, want %v", c.a, c.b, got, want)
			}
		} else if new(big.Int).Add(bigA, bigB).IsInt64() {
			t.Errorf("add64(%d,%d) reported overflow on a fitting sum", c.a, c.b)
		}
		if got, ok := sub64(c.a, c.b); ok {
			if want := new(big.Int).Sub(bigA, bigB); !want.IsInt64() || want.Int64() != got {
				t.Errorf("sub64(%d,%d) = %d, want %v", c.a, c.b, got, want)
			}
		} else if new(big.Int).Sub(bigA, bigB).IsInt64() {
			t.Errorf("sub64(%d,%d) reported overflow on a fitting difference", c.a, c.b)
		}
		if got, ok := mul64(c.a, c.b); ok {
			if want := new(big.Int).Mul(bigA, bigB); !want.IsInt64() || want.Int64() != got {
				t.Errorf("mul64(%d,%d) = %d, want %v", c.a, c.b, got, want)
			}
		} else if new(big.Int).Mul(bigA, bigB).IsInt64() {
			t.Errorf("mul64(%d,%d) reported overflow on a fitting product", c.a, c.b)
		}
	}
	// MinInt64 products that land exactly on the boundary.
	if got, ok := mul64(math.MinInt64, 1); !ok || got != math.MinInt64 {
		t.Errorf("mul64(MinInt64, 1) = %d, %v", got, ok)
	}
	if got, ok := mul64(-(int64(1) << 32), int64(1)<<31); !ok || got != math.MinInt64 {
		t.Errorf("mul64(-2^32, 2^31) = %d, %v; want MinInt64, true", got, ok)
	}
	if _, ok := mul64(int64(1)<<32, int64(1)<<31); ok {
		t.Error("mul64(2^32, 2^31) must overflow (MaxInt64+1)")
	}
	if _, ok := neg64(math.MinInt64); ok {
		t.Error("neg64(MinInt64) must overflow")
	}
}

// applyRval performs op on rvals; applyRat is the big.Rat ground truth.
func applyRval(op byte, z, x, y *rval) {
	switch op % 7 {
	case 0:
		z.set(x)
		z.add(y)
	case 1:
		z.sub(x, y)
	case 2:
		z.mul(x, y)
	case 3:
		z.set(x)
		z.addMul(y, y)
	case 4:
		if y.sign() != 0 {
			z.div(x, y)
		} else {
			z.set(x)
		}
	case 5:
		z.set(x)
		z.neg()
	case 6:
		z.mulNeg(x, y)
	}
}

func applyRat(op byte, x, y *big.Rat) *big.Rat {
	z := new(big.Rat)
	switch op % 7 {
	case 0:
		z.Add(x, y)
	case 1:
		z.Sub(x, y)
	case 2:
		z.Mul(x, y)
	case 3:
		z.Add(x, new(big.Rat).Mul(y, y))
	case 4:
		if y.Sign() != 0 {
			z.Quo(x, y)
		} else {
			z.Set(x)
		}
	case 5:
		z.Neg(x)
	case 6:
		z.Mul(x, y)
		z.Neg(z)
	}
	return z
}

// FuzzFastPathArith cross-checks every rval operation against big.Rat
// ground truth, including the +-2^63 overflow boundaries where the fast
// path must trip into the wide fallback without changing the value.
func FuzzFastPathArith(f *testing.F) {
	seeds := []struct {
		op             byte
		an, ad, bn, bd int64
	}{
		{0, 1, 2, 1, 3},
		{1, math.MaxInt64, 1, -1, 1},
		{2, math.MaxInt64, 3, 3, 1},
		{3, math.MinInt64, 1, 3037000499, 1},
		{4, 1, math.MaxInt64, math.MinInt64, 7},
		{2, math.MinInt64, math.MaxInt64, math.MaxInt64, math.MinInt64 + 1},
		{0, math.MaxInt64 - 1, 2, math.MaxInt64, 2},
		{6, math.MinInt64, 1, 1, math.MinInt64},
		{5, math.MinInt64, 1, 0, 1},
		{1, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64, math.MaxInt64 - 1},
	}
	for _, s := range seeds {
		f.Add(s.op, s.an, s.ad, s.bn, s.bd)
	}
	f.Fuzz(func(t *testing.T, op byte, an, ad, bn, bd int64) {
		if ad == 0 || bd == 0 {
			t.Skip()
		}
		var x, y, z rval
		x.setFrac64(an, ad)
		y.setFrac64(bn, bd)
		rx, ry := ratOf(&x), ratOf(&y)
		if rx.Cmp(new(big.Rat).SetFrac64(an, ad)) != 0 {
			t.Fatalf("setFrac64(%d,%d) = %v", an, ad, rx)
		}
		applyRval(op, &z, &x, &y)
		want := applyRat(op, rx, ry)
		if got := ratOf(&z); got.Cmp(want) != 0 {
			t.Fatalf("op %d on %v, %v: fast path %v, big.Rat %v", op%7, rx, ry, got, want)
		}
		// Operands must be unchanged (ops only write their receiver).
		if ratOf(&x).Cmp(rx) != 0 || ratOf(&y).Cmp(ry) != 0 {
			t.Fatalf("op %d mutated an operand", op%7)
		}
		// cmp must agree with big.Rat comparison.
		if x.cmp(&y) != rx.Cmp(ry) {
			t.Fatalf("cmp(%v, %v) = %d, want %d", rx, ry, x.cmp(&y), rx.Cmp(ry))
		}
		// Aliased receiver: z = z op y.
		var za rval
		za.set(&x)
		applyRval(op, &za, &za, &y)
		wantAlias := applyRat(op, rx, ry)
		if got := ratOf(&za); got.Cmp(wantAlias) != 0 {
			t.Fatalf("aliased op %d: got %v, want %v", op%7, got, wantAlias)
		}
		// The same computation under ForceSlowPath must agree exactly.
		ForceSlowPath = true
		defer func() { ForceSlowPath = false }()
		var xs, ys, zs rval
		xs.setFrac64(an, ad)
		ys.setFrac64(bn, bd)
		applyRval(op, &zs, &xs, &ys)
		if got := ratOf(&zs); got.Cmp(want) != 0 {
			t.Fatalf("slow path disagrees: got %v, want %v", got, want)
		}
	})
}

func TestRvalNarrowsAfterWideDetour(t *testing.T) {
	// (2^62 + 2^62) / 2 overflows int64 transiently, then fits again.
	var x, two rval
	x.setInt64(1 << 62)
	x.add(&x)
	if !x.isWide {
		t.Fatal("2^63 must be wide")
	}
	two.setInt64(2)
	x.div(&x, &two)
	if x.isWide {
		t.Fatalf("2^63/2 = 2^62 should have narrowed, got wide %v", x.rat())
	}
	if x.n != 1<<62 || x.d != 1 {
		t.Fatalf("narrowed to %d/%d, want 2^62/1", x.n, x.d)
	}
}

// TestOverflowTripInSolver drives the full simplex solver over
// coefficients near 2^60 so pivot arithmetic must trip into the wide
// fallback, and checks the verdict and model against small-coefficient
// ground truth semantics.
func TestOverflowTripInSolver(t *testing.T) {
	huge := int64(1) << 60
	// huge*x + huge*y >= 3*huge, x <= 1, y <= 3: feasible (x=1, y=2).
	s := New(2)
	e := s.DefineSlack(map[int]*big.Int{0: big.NewInt(huge), 1: big.NewInt(huge)})
	lo := new(big.Rat).SetInt(new(big.Int).Mul(big.NewInt(3), big.NewInt(huge)))
	if c := s.AssertLower(e, lo, 1); c != nil {
		t.Fatal("unexpected conflict on lower")
	}
	if c := s.AssertUpper(0, rat(1, 1), 2); c != nil {
		t.Fatal(c)
	}
	if c := s.AssertUpper(1, rat(3, 1), 3); c != nil {
		t.Fatal(c)
	}
	if c := s.Check(); c != nil {
		t.Fatalf("feasible huge system rejected: %+v", c)
	}
	x, y := s.Value(0), s.Value(1)
	sum := new(big.Rat).Add(x, y)
	if sum.Cmp(rat(3, 1)) < 0 || x.Cmp(rat(1, 1)) > 0 || y.Cmp(rat(3, 1)) > 0 {
		t.Fatalf("invalid model x=%v y=%v", x, y)
	}
	// Now x+y can contribute at most 4*huge; demand 5*huge: infeasible,
	// and the conflict must cite all three bounds.
	hi := new(big.Rat).SetInt(new(big.Int).Mul(big.NewInt(5), big.NewInt(huge)))
	if c := s.AssertLower(e, hi, 4); c != nil {
		t.Fatal("bound-vs-bound conflict too early")
	}
	c := s.Check()
	if c == nil || c.Tainted {
		t.Fatalf("expected untainted conflict, got %+v", c)
	}
	want := map[int]bool{2: true, 3: true, 4: true}
	for _, tag := range c.Tags {
		delete(want, tag)
	}
	if len(want) != 0 {
		t.Fatalf("conflict %v missing tags %v", c.Tags, want)
	}
}

// fuzzBound is one step of a FuzzSolverFastSlow system: assert a bound
// n/d on variable v, optionally inside a new frame, followed by an
// optional Check and an optional Pop.
type fuzzBound struct {
	v                       int
	upper, push, check, pop bool
	n, d                    int64
}

// encodeSystem renders a system in FuzzSolverFastSlow's input format:
// nv problem variables, one slack per row of coefs (one coefficient per
// problem variable, within +-2^62), then the bound steps. Tags are the
// step numbers from 1.
func encodeSystem(nv int, coefs [][]int64, steps []fuzzBound) []byte {
	le := binary.LittleEndian.AppendUint64
	out := []byte{byte(nv - 1), byte(len(coefs))}
	for _, row := range coefs {
		for _, c := range row {
			out = le(out, uint64(c<<1))
		}
	}
	for _, st := range steps {
		var fl byte
		for bit, on := range []bool{st.upper, st.push, st.check, st.pop} {
			if on {
				fl |= 1 << bit
			}
		}
		out = append(out, byte(st.v), fl)
		out = le(out, uint64(st.n))
		out = le(out, uint64(st.d-1)<<2)
	}
	return out
}

// runSystem decodes a FuzzSolverFastSlow input, replays it on a fresh
// solver, and returns a transcript of every outcome: each assert's
// conflict, each Check's verdict, conflict tags and pivot count, and
// every value after a successful Check. It fails t when a successful
// Check leaves a bound violated or a slack off its definition.
func runSystem(t *testing.T, data []byte) []string {
	if len(data) < 2 {
		return nil
	}
	u64 := binary.LittleEndian.Uint64
	nv, ns := 1+int(data[0]%4), int(data[1]%4)
	data = data[2:]
	if len(data) < ns*nv*8 {
		return nil
	}
	s := New(nv)
	s.PivotBudget = 5000
	defs := make([][]*big.Int, ns)
	for r := range defs {
		def := make(map[int]*big.Int, nv)
		defs[r] = make([]*big.Int, nv)
		for v := 0; v < nv; v++ {
			c := big.NewInt(int64(u64(data)) >> 1)
			data = data[8:]
			defs[r][v] = c
			if c.Sign() != 0 {
				def[v] = c
			}
		}
		s.DefineSlack(def)
	}
	var out []string
	conflict := func(what string, c *Conflict) {
		if c == nil {
			out = append(out, what+": ok")
			return
		}
		out = append(out, fmt.Sprintf("%s: conflict %v tainted=%v budget=%v pivots=%d",
			what, c.Tags, c.Tainted, c.Budget, s.Pivots))
	}
	check := func() {
		c := s.Check()
		conflict(fmt.Sprintf("check (pivots %d)", s.Pivots), c)
		if c != nil {
			return
		}
		vals := make([]*big.Rat, s.NumVars())
		for v := range vals {
			vals[v] = s.Value(v)
			out = append(out, fmt.Sprintf("x%d = %v", v, vals[v]))
			if s.lower[v].set && vals[v].Cmp(s.lower[v].val.rat()) < 0 ||
				s.upper[v].set && vals[v].Cmp(s.upper[v].val.rat()) > 0 {
				t.Fatalf("x%d = %v violates its bounds after a successful Check", v, vals[v])
			}
		}
		for r, def := range defs {
			sum := new(big.Rat)
			for v, c := range def {
				sum.Add(sum, new(big.Rat).Mul(new(big.Rat).SetInt(c), vals[v]))
			}
			if sum.Cmp(vals[nv+r]) != 0 {
				t.Fatalf("slack %d = %v, its definition gives %v", nv+r, vals[nv+r], sum)
			}
		}
	}
	// Check picks what an ascending scan of every basic variable would
	// pick only while each basic variable off its candidate list is
	// within its bounds.
	candidates := func(when string) {
		members := 0
		for v, in := range s.inCand {
			if in {
				members++
				continue
			}
			if s.rows[v] != nil && (s.lower[v].set && s.beta[v].cmp(&s.lower[v].val) < 0 ||
				s.upper[v].set && s.beta[v].cmp(&s.upper[v].val) > 0) {
				t.Fatalf("%s: basic x%d violates a bound but is no Check candidate", when, v)
			}
		}
		if members != len(s.cand) {
			t.Fatalf("%s: %d variables marked as candidates, %d listed", when, members, len(s.cand))
		}
	}
	depth := 0
	for step := 1; len(data) >= 18 && step <= 64; step++ {
		v, fl := int(data[0])%(nv+ns), data[1]
		n, d := int64(u64(data[2:])), 1+int64(u64(data[10:])>>2)
		data = data[18:]
		if fl&2 != 0 {
			s.Push()
			depth++
		}
		b := new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d))
		if fl&1 != 0 {
			conflict(fmt.Sprintf("x%d <= %v", v, b), s.AssertUpper(v, b, step))
		} else {
			conflict(fmt.Sprintf("x%d >= %v", v, b), s.AssertLower(v, b, step))
		}
		candidates(fmt.Sprintf("step %d assert", step))
		if fl&4 != 0 {
			check()
			candidates(fmt.Sprintf("step %d check", step))
		}
		if fl&8 != 0 && depth > 0 {
			s.Pop()
			depth--
		}
	}
	check()
	candidates("final check")
	return out
}

// FuzzSolverFastSlow replays random small systems, with coefficients up
// to +-2^62, with and without the fast path, and requires the same
// transcript: verdicts, conflict tags, values and pivot counts. Rows
// that overflow int64 fall back to rvals and narrow back, so the fast
// run mixes both row forms while the slow run keeps every row rational.
func FuzzSolverFastSlow(f *testing.F) {
	// A pivot-heavy feasible system with fractional bounds.
	f.Add(encodeSystem(3,
		[][]int64{{2, 3, -1}, {-1, 5, 0}, {0, 7, 2}},
		[]fuzzBound{
			{v: 3, n: 4, d: 1},
			{v: 4, upper: true, n: 10, d: 3},
			{v: 5, n: -2, d: 7},
			{v: 0, upper: true, n: 9, d: 2},
			{v: 1, n: -3, d: 1},
			{v: 2, upper: true, n: 11, d: 1},
		}))
	// TestOverflowTripInSolver's system: 2^60 coefficients, feasible,
	// then infeasible with a conflict citing all three bounds.
	huge := int64(1) << 60
	f.Add(encodeSystem(2,
		[][]int64{{huge, huge}},
		[]fuzzBound{
			{v: 2, n: 3 * huge, d: 1},
			{v: 0, upper: true, n: 1, d: 1},
			{v: 1, upper: true, n: 3, d: 1, check: true},
			{v: 2, n: 5 * huge, d: 1},
		}))
	// Frames around checks, so Pop and the candidate list interleave.
	f.Add(encodeSystem(3,
		[][]int64{{1, 1, 1}, {1, -2, 0}, {0, 3, -1}},
		[]fuzzBound{
			{v: 0, n: 0, d: 1},
			{v: 1, n: 0, d: 1},
			{v: 3, n: 7, d: 1, push: true, check: true},
			{v: 4, upper: true, n: -1, d: 1, push: true, check: true, pop: true},
			{v: 5, n: 5, d: 2, check: true, pop: true},
			{v: 2, upper: true, n: 1, d: 1, check: true},
		}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := runSystem(t, data)
		ForceSlowPath = true
		defer func() { ForceSlowPath = false }()
		slow := runSystem(t, data)
		for i := 0; i < len(fast) || i < len(slow); i++ {
			var a, b string
			if i < len(fast) {
				a = fast[i]
			}
			if i < len(slow) {
				b = slow[i]
			}
			if a != b {
				t.Fatalf("step %d: fast path %q, slow path %q", i, a, b)
			}
		}
	})
}

func TestNumAPI(t *testing.T) {
	n := NumFromInt64(41).AddInt64(1)
	if n.Rat().Cmp(rat(42, 1)) != 0 {
		t.Fatalf("41+1 = %v", n.Rat())
	}
	big9 := new(big.Int).Exp(big.NewInt(10), big.NewInt(30), nil)
	m := NumFromBigInt(big9)
	if m.Rat().Cmp(new(big.Rat).SetInt(big9)) != 0 {
		t.Fatalf("NumFromBigInt(10^30) = %v", m.Rat())
	}
	if m.Cmp(n) <= 0 {
		t.Fatal("10^30 must compare above 42")
	}
	r := NumFromRat(rat(-7, 3))
	if r.Rat().Cmp(rat(-7, 3)) != 0 {
		t.Fatalf("NumFromRat = %v", r.Rat())
	}
	if got := r.AddInt64(1).Rat(); got.Cmp(rat(-4, 3)) != 0 {
		t.Fatalf("-7/3 + 1 = %v", got)
	}
}
