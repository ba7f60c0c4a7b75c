// Package portfolio races complementary decision procedures from the
// backend registry against each other: a scheduler picks a subset per
// problem from cheap syntactic features, each backend runs on its own
// goroutine with a private problem clone and a slice of the resource
// budget, the first settled SAT/UNSAT verdict cancels the rest, and
// per-backend win/loss/timeout counts — bucketed by feature vector —
// bias future scheduling toward historical winners. The race is
// staged by the same history: the anchor engine and the bucket's past
// winners start at once, and the others only once the anchor has run
// longer than its longest win in the bucket, or once every early
// attempt has given up.
package portfolio

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/strcon"
)

// Features is the cheap syntactic profile the scheduler extracts from
// a prepared problem. Extraction is a single recursive scan of the
// constraint tree, StaticLoopLen-style — no solving.
type Features struct {
	// Conversions counts string-number constraints (toNum + toStr).
	Conversions int
	// Memberships counts regular-membership constraints.
	Memberships int
	// LengthCons counts arithmetic constraints (length and integer
	// atoms riding on the string structure).
	LengthCons int
	// WordEqs counts word (dis)equations and orderings.
	WordEqs int
	// Constraints is the total leaf-constraint count.
	Constraints int
	// StrVars is the number of string variables.
	StrVars int
	// LoopLen is the static loop-length estimate (core.StaticLoopLen).
	LoopLen int
}

// Extract profiles the problem. It only reads; call it after Prepare
// so desugared constraints are counted in their final shape.
func Extract(prob *strcon.Problem) Features {
	f := Features{StrVars: prob.NumStrVars(), LoopLen: core.StaticLoopLen(prob)}
	var scan func(c strcon.Constraint)
	scan = func(c strcon.Constraint) {
		switch t := c.(type) {
		case *strcon.ToNum, *strcon.ToStr:
			f.Conversions++
			f.Constraints++
		case *strcon.Membership:
			f.Memberships++
			f.Constraints++
		case *strcon.Arith:
			f.LengthCons++
			f.Constraints++
		case *strcon.WordEq, *strcon.WordNeq, *strcon.Ord:
			f.WordEqs++
			f.Constraints++
		case *strcon.AndCon:
			for _, a := range t.Args {
				scan(a)
			}
		case *strcon.OrCon:
			for _, a := range t.Args {
				scan(a)
			}
		default:
			f.Constraints++
		}
	}
	for _, c := range prob.Constraints {
		scan(c)
	}
	return f
}

// level coarsens a count into 0, 1 (1–3) or 2 (4+): buckets must be
// coarse enough that instances of one family land in one bucket and
// the win history actually accumulates.
func level(n int) int {
	switch {
	case n <= 0:
		return 0
	case n <= 3:
		return 1
	default:
		return 2
	}
}

// sizeLevel coarsens the total constraint count.
func sizeLevel(n int) int {
	switch {
	case n <= 8:
		return 0
	case n <= 32:
		return 1
	default:
		return 2
	}
}

// Bucket is the feature vector's coarse key: the unit of win/loss
// bookkeeping and of scheduling bias.
func (f Features) Bucket() string {
	return fmt.Sprintf("conv%d re%d len%d eq%d sz%d loop%d",
		level(f.Conversions), level(f.Memberships), level(f.LengthCons),
		level(f.WordEqs), sizeLevel(f.Constraints), f.LoopLen)
}
