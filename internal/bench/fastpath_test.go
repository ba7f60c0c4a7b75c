package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/simplex"
	"repro/internal/strcon"
)

// solveMode runs one instance through the decision procedure. timedOut
// reports whether the solve hit its deadline, which excuses an Unknown
// verdict in a cross-run comparison.
func solveMode(inst *Instance) (res core.Result, timedOut bool) {
	prob := inst.Build()
	ec := engine.WithTimeout(30 * time.Second)
	res = core.SolveCtx(prob, core.Options{}, ec)
	return res, ec.TimedOut()
}

// solveForced runs one instance with the simplex fast path forced off
// (every rational operation routed through big.Rat) or left in its
// default int64-first configuration.
func solveForced(inst *Instance, slow bool) (core.Result, bool) {
	simplex.ForceSlowPath = slow
	defer func() { simplex.ForceSlowPath = false }()
	return solveMode(inst)
}

// TestFastPathSlowPathAgreement is the differential gate for the int64
// arithmetic substrate: every generator instance of the benchmark
// tables is solved twice, once on the machine-word fast path and once
// with ForceSlowPath routing all simplex arithmetic through big.Rat.
// Because both paths compute exact rationals, the solver must be
// bit-for-bit deterministic across them: identical verdicts, identical
// witnesses (not merely models that both validate), and the same search
// trajectory, so the same conflict, decision, propagation and pivot
// counts in the two stats trees.
func TestFastPathSlowPathAgreement(t *testing.T) {
	for _, inst := range equivInstances() {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			fast, fastTO := solveForced(inst, false)
			slow, slowTO := solveForced(inst, true)
			if fast.Status != slow.Status {
				excused := fast.Status == core.StatusUnknown && fastTO ||
					slow.Status == core.StatusUnknown && slowTO
				if !excused {
					t.Fatalf("%s: fast path %v, slow path %v", inst.Name, fast.Status, slow.Status)
				}
				t.Logf("%s: verdicts differ under timeout (fast %v, slow %v)", inst.Name, fast.Status, slow.Status)
			}
			if fast.Status == core.StatusSat && slow.Status == core.StatusSat {
				if !modelsEqual(fast.Model, slow.Model) {
					t.Fatalf("%s: fast-path witness differs from slow-path witness", inst.Name)
				}
			}
			if !fastTO && !slowTO {
				for _, c := range []string{"conflicts", "decisions", "propagations", "pivots"} {
					if f, s := fast.Stats.Total(c), slow.Stats.Total(c); f != s {
						t.Fatalf("%s: %s differ: fast path %d, slow path %d", inst.Name, c, f, s)
					}
				}
			}
			if fast.Status == core.StatusSat {
				if !inst.Build().Eval(fast.Model) {
					t.Fatalf("%s: shared witness fails concrete validation", inst.Name)
				}
			}
			if inst.Expected == ExpectSat && fast.Status == core.StatusUnsat ||
				inst.Expected == ExpectUnsat && fast.Status == core.StatusSat {
				t.Fatalf("%s: verdict %v contradicts ground truth %v", inst.Name, fast.Status, inst.Expected)
			}
		})
	}
}

// modelsEqual compares the string parts and the integer parts of two
// assignments.
func modelsEqual(a, b *strcon.Assignment) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Str) != len(b.Str) {
		return false
	}
	for v, s := range a.Str {
		if b.Str[v] != s {
			return false
		}
	}
	if len(a.Int) != len(b.Int) {
		return false
	}
	for v, x := range a.Int {
		y, ok := b.Int[v]
		if !ok || x.Cmp(y) != 0 {
			return false
		}
	}
	return true
}
