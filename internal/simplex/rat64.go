package simplex

// The machine-word fast path of the simplex arithmetic substrate.
//
// Tableau coefficients, assignment values, and bounds are rationals.
// On the instances this solver sees they are overwhelmingly small
// integers (the tableaux come from integer linear constraints), so
// representing every value as a heap-allocated big.Rat — as the first
// seven PRs did — pays pointer-chasing, allocation, and word-by-word
// arithmetic costs on values that fit comfortably in a machine word.
//
// rval stores a rational as a reduced int64 numerator/denominator pair
// and performs all arithmetic through overflow-checked helpers built on
// math/bits. Any operation whose exact result cannot be represented in
// int64 promotes that one value to an exact big.Rat ("wide") and the
// computation continues losslessly; results that shrink back into range
// are re-narrowed, so a single overflow does not poison a row. The
// traulint overflowguard check enforces that no raw int64 add/sub/mul
// sneaks into this package outside the checked helpers.
//
// ForceSlowPath routes every operation through the big.Rat fallback so
// differential tests can prove the two paths byte-identical.

import (
	"math/big"
	"math/bits"
)

// ForceSlowPath, when true, disables the int64 fast path: every rval
// operation computes through the exact big.Rat fallback and nothing is
// re-narrowed, and every tableau row keeps the rational form, so pivots
// run the rval merge. It exists for the differential test suite
// (fast-path verdicts, witnesses and pivot counts must be identical with
// the flag on) and must only be toggled while no solver is running.
var ForceSlowPath bool

// rval is one rational value of the tableau: n/d with d >= 1 and
// gcd(|n|, d) == 1 while isWide is false, or the exact value in wide
// while isWide is true. The wide pointer is retained as scratch after
// re-narrowing so repeated overflow trips on the same cell do not
// reallocate.
//
// rvals must not be copied by struct assignment once wide is non-nil
// (two copies would share and corrupt the same big.Rat); use set.
type rval struct {
	n, d   int64
	wide   *big.Rat
	isWide bool
}

// add64 is an overflow-checked helper: a+b and whether it fit.
func add64(a, b int64) (int64, bool) {
	s := a + b
	// Overflow iff the operands share a sign the sum does not.
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		return 0, false
	}
	return s, true
}

// sub64 is an overflow-checked helper: a-b and whether it fit.
func sub64(a, b int64) (int64, bool) {
	s := a - b
	if (a >= 0) != (b >= 0) && (s >= 0) != (a >= 0) {
		return 0, false
	}
	return s, true
}

// neg64 is an overflow-checked helper: -a and whether it fit (it does
// not for MinInt64).
func neg64(a int64) (int64, bool) {
	if a == minInt64 {
		return 0, false
	}
	return -a, true
}

// mul64 is an overflow-checked helper: a*b and whether it fit, via a
// full 64x64->128 multiply of the magnitudes.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	neg := (a < 0) != (b < 0)
	hi, lo := bits.Mul64(absU64(a), absU64(b))
	if hi != 0 {
		return 0, false
	}
	if neg {
		if lo > 1<<63 {
			return 0, false
		}
		return -int64(lo), true // lo == 1<<63 yields MinInt64 exactly
	}
	if lo > 1<<63-1 {
		return 0, false
	}
	return int64(lo), true
}

const minInt64 = -1 << 63

// absU64 returns |a| as a uint64 (total, including MinInt64).
func absU64(a int64) uint64 {
	u := uint64(a)
	if a < 0 {
		u = -u
	}
	return u
}

// gcd64 is Euclid's algorithm on magnitudes; gcd64(0, x) == x.
func gcd64(a, b uint64) uint64 {
	//lint:nopoll bounded: Euclid's algorithm halves a+b every two steps
	for a != 0 {
		a, b = b%a, a
	}
	return b
}

// reduce64 normalizes n/d (d > 0) to lowest terms. Division cannot
// overflow because d > 0.
func reduce64(n, d int64) (int64, int64) {
	if n == 0 {
		return 0, 1
	}
	g := gcd64(absU64(n), uint64(d))
	if g > 1 {
		n /= int64(g)
		d /= int64(g)
	}
	return n, d
}

// addSmall computes an/ad + bn/bd in int64 (ad, bd > 0), reporting
// whether every intermediate fit.
func addSmall(an, ad, bn, bd int64) (int64, int64, bool) {
	g := int64(gcd64(uint64(ad), uint64(bd)))
	db := bd / g
	da := ad / g
	t1, ok1 := mul64(an, db)
	t2, ok2 := mul64(bn, da)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	nn, ok := add64(t1, t2)
	if !ok {
		return 0, 0, false
	}
	dd, ok := mul64(ad, db)
	if !ok {
		return 0, 0, false
	}
	n, d := reduce64(nn, dd)
	return n, d, true
}

// mulSmall computes (an/ad) * (bn/bd) in int64 with cross-reduction.
func mulSmall(an, ad, bn, bd int64) (int64, int64, bool) {
	if an == 0 || bn == 0 {
		return 0, 1, true
	}
	g1 := int64(gcd64(absU64(an), uint64(bd)))
	g2 := int64(gcd64(absU64(bn), uint64(ad)))
	nn, ok1 := mul64(an/g1, bn/g2)
	dd, ok2 := mul64(ad/g2, bd/g1)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	return nn, dd, true // cross-reduced operands are already coprime
}

// divSmall computes (an/ad) / (bn/bd) in int64; bn must be nonzero.
func divSmall(an, ad, bn, bd int64) (int64, int64, bool) {
	if bn < 0 {
		var ok bool
		if an, ok = neg64(an); !ok {
			return 0, 0, false
		}
		if bn, ok = neg64(bn); !ok {
			return 0, 0, false
		}
	}
	return mulSmall(an, ad, bd, bn)
}

// cmpSmall compares an/ad with bn/bd (ad, bd > 0) exactly via 128-bit
// cross products; it cannot overflow and never allocates.
func cmpSmall(an, ad, bn, bd int64) int {
	sa, sb := 0, 0
	if an > 0 {
		sa = 1
	} else if an < 0 {
		sa = -1
	}
	if bn > 0 {
		sb = 1
	} else if bn < 0 {
		sb = -1
	}
	if sa != sb {
		if sa < sb {
			return -1
		}
		return 1
	}
	if sa == 0 {
		return 0
	}
	h1, l1 := bits.Mul64(absU64(an), uint64(bd))
	h2, l2 := bits.Mul64(absU64(bn), uint64(ad))
	m := 0
	if h1 != h2 {
		if h1 < h2 {
			m = -1
		} else {
			m = 1
		}
	} else if l1 != l2 {
		if l1 < l2 {
			m = -1
		} else {
			m = 1
		}
	}
	return m * sa
}

// --- rval methods ---------------------------------------------------

// widen returns the wide scratch, allocating it on first use. It does
// not mark the value wide; callers overwrite the returned big.Rat.
func (z *rval) widen() *big.Rat {
	if z.wide == nil {
		z.wide = new(big.Rat)
	}
	return z.wide
}

// view returns the value as a big.Rat, materializing fast-path values
// into buf (wide values are returned directly; do not mutate).
func (x *rval) view(buf *big.Rat) *big.Rat {
	if x.isWide {
		return x.wide
	}
	return buf.SetFrac64(x.n, x.d)
}

// promote makes the value wide (loading the fast-path value into the
// scratch big.Rat if needed) and returns it for in-place mutation.
func (z *rval) promote() *big.Rat {
	w := z.widen()
	if !z.isWide {
		w.SetFrac64(z.n, z.d)
		z.isWide = true
	}
	return w
}

// finishWide re-narrows a freshly computed wide value when it fits the
// machine word again (big.Rat keeps values reduced, so the int64 fit
// check is exact). Under ForceSlowPath values stay wide.
func (z *rval) finishWide() {
	z.isWide = true
	if ForceSlowPath {
		return
	}
	if z.wide.Num().IsInt64() && z.wide.Denom().IsInt64() {
		z.n, z.d = z.wide.Num().Int64(), z.wide.Denom().Int64()
		z.isWide = false
	}
}

func fast1(x *rval) bool { return !ForceSlowPath && !x.isWide }

func fast2(x, y *rval) bool { return !ForceSlowPath && !x.isWide && !y.isWide }

// set copies x into z. Wide values are deep-copied so z and x never
// share a big.Rat.
func (z *rval) set(x *rval) {
	if z == x {
		return
	}
	if x.isWide {
		z.widen().Set(x.wide)
		z.isWide = true
		return
	}
	z.n, z.d = x.n, x.d
	z.isWide = false
}

// setInt64 sets z to x.
func (z *rval) setInt64(x int64) {
	if ForceSlowPath {
		z.widen().SetInt64(x)
		z.isWide = true
		return
	}
	z.n, z.d = x, 1
	z.isWide = false
}

// setFrac64 sets z to n/d (d != 0, any sign).
func (z *rval) setFrac64(n, d int64) {
	if d == 0 {
		panic("simplex: zero denominator") // contract: callers divide by nonzero values only
	}
	if !ForceSlowPath && d != minInt64 && n != minInt64 {
		if d < 0 {
			n, d = -n, -d //lint:nooverflow both negations guarded against MinInt64 above
		}
		z.n, z.d = reduce64(n, d)
		z.isWide = false
		return
	}
	z.widen().SetFrac64(n, d)
	z.finishWide()
}

// setBigInt sets z to x.
func (z *rval) setBigInt(x *big.Int) {
	if !ForceSlowPath && x.IsInt64() {
		z.n, z.d = x.Int64(), 1
		z.isWide = false
		return
	}
	z.widen().SetInt(x)
	z.isWide = true
}

// setRat sets z to x (copying).
func (z *rval) setRat(x *big.Rat) {
	if !ForceSlowPath && x.Num().IsInt64() && x.Denom().IsInt64() {
		z.n, z.d = x.Num().Int64(), x.Denom().Int64()
		z.isWide = false
		return
	}
	z.widen().Set(x)
	z.isWide = true
}

// rat returns the value as a freshly allocated big.Rat.
func (x *rval) rat() *big.Rat {
	if x.isWide {
		return new(big.Rat).Set(x.wide)
	}
	return new(big.Rat).SetFrac64(x.n, x.d)
}

// sign returns -1, 0, or 1.
func (x *rval) sign() int {
	if x.isWide {
		return x.wide.Sign()
	}
	if x.n > 0 {
		return 1
	}
	if x.n < 0 {
		return -1
	}
	return 0
}

// isInt reports whether the value is an integer.
func (x *rval) isInt() bool {
	if x.isWide {
		return x.wide.IsInt()
	}
	return x.d == 1
}

// cmp compares x with y.
func (x *rval) cmp(y *rval) int {
	if fast2(x, y) {
		return cmpSmall(x.n, x.d, y.n, y.d)
	}
	var bx, by big.Rat
	return x.view(&bx).Cmp(y.view(&by))
}

// neg negates z in place.
func (z *rval) neg() {
	if fast1(z) {
		if n, ok := neg64(z.n); ok {
			z.n = n
			return
		}
	}
	w := z.promote()
	w.Neg(w)
	z.finishWide()
}

// add sets z += x. z may alias x.
func (z *rval) add(x *rval) {
	if fast2(z, x) {
		if n, d, ok := addSmall(z.n, z.d, x.n, x.d); ok {
			z.n, z.d = n, d
			return
		}
	}
	var bx big.Rat
	xr := x.view(&bx)
	w := z.promote()
	w.Add(w, xr)
	z.finishWide()
}

// sub sets z = x - y. z may alias x or y.
func (z *rval) sub(x, y *rval) {
	if fast2(x, y) {
		if yn, ok := neg64(y.n); ok {
			if n, d, ok := addSmall(x.n, x.d, yn, y.d); ok {
				z.n, z.d = n, d
				z.isWide = false
				return
			}
		}
	}
	var bx, by big.Rat
	xr, yr := x.view(&bx), y.view(&by)
	z.widen().Sub(xr, yr)
	z.finishWide()
}

// addMul sets z += a*b. z must not alias a or b.
func (z *rval) addMul(a, b *rval) {
	if fast2(a, b) && !z.isWide {
		if tn, td, ok := mulSmall(a.n, a.d, b.n, b.d); ok {
			if n, d, ok := addSmall(z.n, z.d, tn, td); ok {
				z.n, z.d = n, d
				return
			}
		}
	}
	var ba, bb, bt big.Rat
	t := bt.Mul(a.view(&ba), b.view(&bb))
	w := z.promote()
	w.Add(w, t)
	z.finishWide()
}

// mul sets z = x * y. z may alias x or y.
func (z *rval) mul(x, y *rval) {
	if fast2(x, y) {
		if n, d, ok := mulSmall(x.n, x.d, y.n, y.d); ok {
			z.n, z.d = n, d
			z.isWide = false
			return
		}
	}
	var bx, by big.Rat
	xr, yr := x.view(&bx), y.view(&by)
	z.widen().Mul(xr, yr)
	z.finishWide()
}

// mulNeg sets z = -(x * y). z may alias x or y.
func (z *rval) mulNeg(x, y *rval) {
	z.mul(x, y)
	z.neg()
}

// div sets z = x / y (y nonzero). z may alias x or y.
func (z *rval) div(x, y *rval) {
	if fast2(x, y) {
		if n, d, ok := divSmall(x.n, x.d, y.n, y.d); ok {
			z.n, z.d = n, d
			z.isWide = false
			return
		}
	}
	var bx, by big.Rat
	xr, yr := x.view(&bx), y.view(&by)
	z.widen().Quo(xr, yr)
	z.finishWide()
}

// inv sets z = 1 / x (x nonzero). z may alias x.
func (z *rval) inv(x *rval) {
	if fast1(x) {
		n, d := x.n, x.d
		if n < 0 {
			if nn, ok := neg64(n); ok {
				if dd, ok := neg64(d); ok {
					z.n, z.d = dd, nn
					z.isWide = false
					return
				}
			}
		} else if n > 0 {
			z.n, z.d = d, n
			z.isWide = false
			return
		} else {
			panic("simplex: inverse of zero") // contract: pivot coefficients are nonzero
		}
	}
	var bx big.Rat
	z.widen().Inv(x.view(&bx))
	z.finishWide()
}

// floorInt stores floor(x) into dst and returns it.
func (x *rval) floorInt(dst *big.Int) *big.Int {
	if !x.isWide {
		q := x.n / x.d
		if x.n%x.d != 0 && x.n < 0 {
			q-- //lint:nooverflow q > MinInt64/2 here: a nonzero remainder implies d >= 2
		}
		return dst.SetInt64(q)
	}
	var m big.Int
	dst.QuoRem(x.wide.Num(), x.wide.Denom(), &m)
	if m.Sign() < 0 {
		dst.Sub(dst, oneBigInt)
	}
	return dst
}

var oneBigInt = big.NewInt(1)

// intInto stores the value into dst (the value must be an integer).
func (x *rval) intInto(dst *big.Int) *big.Int {
	if !x.isWide {
		return dst.SetInt64(x.n)
	}
	return dst.Set(x.wide.Num())
}

// --- the public Num wrapper -----------------------------------------

// Num is an immutable rational for the solver's public bound API. It
// lets callers (the lia layer, branch and bound) precompute bounds once
// and assert them repeatedly without allocating. Construct Nums with
// the NumFrom* functions: the zero Num is invalid (rval's denominator
// invariant requires d >= 1), not zero.
type Num struct{ rv rval }

// NumFromInt64 returns x as a Num.
func NumFromInt64(x int64) Num {
	var n Num
	n.rv.setInt64(x)
	return n
}

// NumFromBigInt returns x as a Num (copying).
func NumFromBigInt(x *big.Int) Num {
	var n Num
	n.rv.setBigInt(x)
	return n
}

// NumFromRat returns x as a Num (copying).
func NumFromRat(x *big.Rat) Num {
	var n Num
	n.rv.setRat(x)
	return n
}

// AddInt64 returns n + d as a new Num; n is unchanged.
func (n Num) AddInt64(d int64) Num {
	var out Num
	out.rv.set(&n.rv)
	var dd rval
	dd.setInt64(d)
	out.rv.add(&dd)
	return out
}

// Rat returns the value as a freshly allocated big.Rat.
func (n Num) Rat() *big.Rat { return n.rv.rat() }

// Cmp compares n with m.
func (n Num) Cmp(m Num) int { return n.rv.cmp(&m.rv) }
