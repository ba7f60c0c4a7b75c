package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// equivInstances is the cross-mode equivalence corpus: every generator
// of the benchmark tables plus the small end of the checkLuhn family.
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

// solveMode runs one instance through the decision procedure in the
// given mode. timedOut reports whether the solve hit its deadline,
// which excuses an Unknown verdict in the cross-mode comparison.
func solveMode(inst *Instance, mode core.IncrementalMode) (res core.Result, timedOut bool) {
	prob := inst.Build()
	ec := engine.WithTimeout(30 * time.Second)
	res = core.SolveCtx(prob, core.Options{Incremental: mode}, ec)
	return res, ec.TimedOut()
}

// checkAgreement asserts that the incremental and fresh solves of one
// instance agree: identical verdict, and each SAT model validates
// against its own fresh copy of the problem.
func checkAgreement(t *testing.T, inst *Instance, inc, fresh core.Result, incTO, freshTO bool) {
	t.Helper()
	if inc.Status != fresh.Status {
		// Equivalence holds modulo resource limits: a side that ran out
		// of time legitimately answers Unknown where the other decided.
		excused := inc.Status == core.StatusUnknown && incTO ||
			fresh.Status == core.StatusUnknown && freshTO
		if !excused {
			t.Fatalf("%s: incremental %v, fresh %v", inst.Name, inc.Status, fresh.Status)
		}
		t.Logf("%s: verdicts differ under timeout (incremental %v, fresh %v)", inst.Name, inc.Status, fresh.Status)
	}
	for _, r := range []struct {
		mode string
		res  core.Result
	}{{"incremental", inc}, {"fresh", fresh}} {
		if r.res.Status != core.StatusSat {
			continue
		}
		if r.res.Model == nil {
			t.Fatalf("%s: %s mode sat without model", inst.Name, r.mode)
		}
		if !inst.Build().Eval(r.res.Model) {
			t.Fatalf("%s: %s-mode model fails validation", inst.Name, r.mode)
		}
	}
}

// TestIncrementalEquivalence solves every generator instance of the
// benchmark suites with the incremental engine on and off and requires
// identical verdicts, with every model passing the concrete validator.
func TestIncrementalEquivalence(t *testing.T) {
	for _, inst := range equivInstances() {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			inc, incTO := solveMode(inst, core.IncrementalOn)
			fresh, freshTO := solveMode(inst, core.IncrementalOff)
			checkAgreement(t, inst, inc, fresh, incTO, freshTO)
			if inst.Expected == ExpectSat && inc.Status == core.StatusUnsat ||
				inst.Expected == ExpectUnsat && inc.Status == core.StatusSat {
				t.Fatalf("%s: verdict %v contradicts ground truth %v", inst.Name, inc.Status, inst.Expected)
			}
		})
	}
}
