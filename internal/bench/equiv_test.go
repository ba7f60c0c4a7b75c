package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/flatten"
	"repro/internal/lia"
	"repro/internal/overapprox"
)

// equivInstances is the differential corpus: every generator of the
// benchmark tables plus the small end of the checkLuhn family.
func equivInstances() []*Instance {
	var insts []*Instance
	for _, s := range Table1Suites(4) {
		insts = append(insts, s.Instances...)
	}
	for _, s := range Table2Suites(4) {
		insts = append(insts, s.Instances...)
	}
	for k := 2; k <= 6; k++ {
		insts = append(insts, Luhn(k))
	}
	return insts
}

// refineRounds is the refinement loop's default round count.
const refineRounds = 3

// TestIncrementalEquivalence checks the refine engine's two kinds of
// arithmetic search against each other on every instance of the
// differential corpus: a round of a lia.Session, whose formula enters
// under an activation literal, and a one-shot lia.Solve, whose formula
// sits at decision level 0. The instance takes the engine's path. Its
// over-approximation is decided both ways, and an UNSAT there settles
// it. Otherwise it is flattened under the refinement schedule, round
// over round, on one private clone of the problem; one session is kept
// across the rounds, as the engine keeps its sessions, and each round's
// formula is also solved cold. The scan stops at the first satisfiable
// round. The verdicts must agree, every model must satisfy its formula,
// and no verdict may contradict ground truth: a sound over-approximation
// refutes no SAT instance, and a model that decodes and passes the
// concrete validator proves no UNSAT instance wrong.
func TestIncrementalEquivalence(t *testing.T) {
	for _, inst := range equivInstances() {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			incEC := engine.WithTimeout(30 * time.Second)
			freshEC := engine.WithTimeout(30 * time.Second)
			// solveBoth decides f both ways and reports the common
			// verdict and the session's model; ok is false when the
			// verdicts differ under a timeout, which ends the scan.
			solveBoth := func(what string, sess *lia.Session, f lia.Formula,
				onModel func(lia.Model) lia.Formula) (res lia.Result, m lia.Model, ok bool) {
				inc, m := sess.SolveRound(f, onModel, incEC)
				fresh, fm := lia.Solve(f, &lia.Options{Ctx: freshEC, OnModel: onModel})
				if inc != fresh {
					// Equivalence holds modulo resource limits: a side
					// that ran out of time legitimately answers Unknown
					// where the other decided.
					excused := inc == lia.ResUnknown && incEC.TimedOut() ||
						fresh == lia.ResUnknown && freshEC.TimedOut()
					if !excused {
						t.Fatalf("%s %s: incremental %v, fresh %v", inst.Name, what, inc, fresh)
					}
					t.Logf("%s %s: verdicts differ under timeout (incremental %v, fresh %v)", inst.Name, what, inc, fresh)
					return inc, nil, false
				}
				if inc == lia.ResSat && (!lia.Eval(f, m) || !lia.Eval(f, fm)) {
					t.Fatalf("%s %s: a model violates the formula", inst.Name, what)
				}
				return inc, m, inc != lia.ResUnknown
			}

			prob := inst.Build()
			prob.Prepare()
			oa := overapprox.Abstract(prob, prob.Constraints, incEC)
			res, _, ok := solveBoth("over-approximation", lia.NewSession(nil), oa.Formula, oa.OnModel)
			if !ok {
				return
			}
			if res == lia.ResUnsat {
				if inst.Expected == ExpectSat {
					t.Fatalf("%s: over-approximation refutes a SAT instance", inst.Name)
				}
				return
			}

			bp := prob.WithConstraints(prob.Constraints)
			sess := lia.NewSession(nil)
			params := flatten.DefaultParams
			for round := 0; round < refineRounds; round++ {
				fl := flatten.Flatten(bp, bp.Constraints, params, incEC)
				res, m, ok := solveBoth(fmt.Sprintf("round %d", round), sess, fl.Formula, fl.OnModel)
				if !ok {
					return
				}
				if res == lia.ResSat {
					a, err := fl.Decode(m)
					if err == nil && prob.Eval(a) && inst.Expected == ExpectUnsat {
						t.Fatalf("%s round %d: validated model contradicts ground truth %v", inst.Name, round, inst.Expected)
					}
					return
				}
				params = params.Refine()
			}
		})
	}
}
