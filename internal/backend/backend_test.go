package backend

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lia"
	"repro/internal/strcon"
)

// satProblem: x ++ "b" = "ab" with toNum-free structure — every
// complete backend settles it quickly.
func satProblem() *strcon.Problem {
	p := strcon.NewProblem()
	x := p.NewStrVar("x")
	p.Add(&strcon.WordEq{
		L: strcon.Term{{IsVar: true, V: x}, {Const: "b"}},
		R: strcon.Term{{Const: "ab"}},
	})
	return p
}

// unsatProblem: x ++ "a" = "b" — refutable by the over-approximation.
func unsatProblem() *strcon.Problem {
	p := strcon.NewProblem()
	x := p.NewStrVar("x")
	p.Add(&strcon.WordEq{
		L: strcon.Term{{IsVar: true, V: x}, {Const: "a"}},
		R: strcon.Term{{Const: "b"}},
	})
	return p
}

func TestRegistryShape(t *testing.T) {
	want := []string{"refine", "overapprox-only", "enum", "split"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (order is the race tie-break)", i, got[i], want[i])
		}
	}
	for _, name := range want {
		b, ok := Get(name)
		if !ok || b.Name() != name {
			t.Fatalf("Get(%q) = %v, %v", name, b, ok)
		}
	}
	if _, ok := Get("nosuch"); ok {
		t.Fatal("Get(nosuch) resolved")
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(registry) {
		t.Fatalf("Select(\"\") = %d backends, err %v", len(all), err)
	}
	// Flag order must not reorder the result: selection is in registry
	// order regardless of spelling.
	two, err := Select(" split , refine ")
	if err != nil || len(two) != 2 || two[0].Name() != "refine" || two[1].Name() != "split" {
		t.Fatalf("Select(split,refine) = %v, err %v; want [refine split]", two, err)
	}
	if _, err := Select("refine,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("Select with unknown name: err = %v", err)
	}
}

// TestBackendsAgreeOnEasyInstances runs every registry backend on a
// trivially SAT and a trivially UNSAT problem: settled verdicts must
// match ground truth within each backend's capability report, results
// must carry the backend name, SAT models must validate, and the
// solve's wall time must sit under time.total on the context's stats
// node, where the portfolio's attempt accounting reads it.
func TestBackendsAgreeOnEasyInstances(t *testing.T) {
	for _, b := range All() {
		ec := engine.WithTimeout(10 * time.Second)
		res := b.Solve(satProblem(), Options{}, ec)
		if res.Backend != b.Name() {
			t.Errorf("%s: sat result labeled %q", b.Name(), res.Backend)
		}
		if _, ok := ec.Stats().Snapshot().TimersNS["time.total"]; !ok {
			t.Errorf("%s: no time.total timer on the solve's stats node", b.Name())
		}
		caps := b.Caps()
		switch res.Status {
		case core.StatusSat:
			if !caps.ProvesSat {
				t.Errorf("%s: returned SAT but reports ProvesSat=false", b.Name())
			}
			if res.Model == nil || !satProblem().Eval(res.Model) {
				t.Errorf("%s: SAT model missing or invalid", b.Name())
			}
		case core.StatusUnsat:
			t.Errorf("%s: UNSAT on a satisfiable problem", b.Name())
		default:
			if res.Reason == "" {
				t.Errorf("%s: unknown verdict with no reason", b.Name())
			}
		}

		res = b.Solve(unsatProblem(), Options{}, engine.WithTimeout(10*time.Second))
		switch res.Status {
		case core.StatusUnsat:
			if !caps.ProvesUnsat {
				t.Errorf("%s: returned UNSAT but reports ProvesUnsat=false", b.Name())
			}
		case core.StatusSat:
			t.Errorf("%s: SAT on an unsatisfiable problem", b.Name())
		}
	}
}

// overapproxUnsatProblem: toNum(x) >= 1000 with len(x) <= 3 — a
// magnitude conflict the over-approximation alone refutes.
func overapproxUnsatProblem() *strcon.Problem {
	p := strcon.NewProblem()
	x := p.NewStrVar("x")
	n := p.NewIntVar("n")
	p.Add(
		&strcon.ToNum{N: n, X: x},
		&strcon.Arith{F: lia.Ge(lia.V(n), lia.Const(1000))},
		&strcon.Arith{F: lia.Le(lia.V(p.LenVar(x)), lia.Const(3))},
	)
	return p
}

// TestOverApproxOnlyBackend pins the refutation-only engine: it proves
// an abstraction-refutable UNSAT via the gate and returns UNKNOWN
// (never a guess) on the SAT instance.
func TestOverApproxOnlyBackend(t *testing.T) {
	b, _ := Get("overapprox-only")
	res := b.Solve(overapproxUnsatProblem(), Options{}, engine.WithTimeout(10*time.Second))
	if res.Status != core.StatusUnsat || !res.OverApproxDecided {
		t.Fatalf("overapprox-only on unsat = %v (decided=%v), want abstraction UNSAT",
			res.Status, res.OverApproxDecided)
	}
	res = b.Solve(satProblem(), Options{}, engine.WithTimeout(10*time.Second))
	if res.Status != core.StatusUnknown {
		t.Fatalf("overapprox-only on sat = %v, want unknown", res.Status)
	}
	if res.Reason == "" {
		t.Fatal("overapprox-only unknown carries no reason")
	}
}

// TestEnumNeverUnsat pins the capability report of the enumeration
// baseline: exhausting a bounded domain is not a refutation.
func TestEnumNeverUnsat(t *testing.T) {
	b, _ := Get("enum")
	if b.Caps().ProvesUnsat {
		t.Fatal("enum reports ProvesUnsat")
	}
	res := b.Solve(unsatProblem(), Options{}, engine.WithTimeout(10*time.Second))
	if res.Status == core.StatusUnsat {
		t.Fatal("enum returned UNSAT")
	}
}
