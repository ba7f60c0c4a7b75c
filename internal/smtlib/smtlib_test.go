package smtlib

import (
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lia"
	"repro/internal/strcon"
)

func solveSrc(t *testing.T, src string) (core.Result, *Script) {
	t.Helper()
	sc, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res := core.Solve(sc.Problem, core.Options{Timeout: 30 * time.Second})
	return res, sc
}

func TestParseBasicEquation(t *testing.T) {
	src := `
(set-logic QF_S)
(declare-fun x () String)
(declare-fun y () String)
(assert (= (str.++ x y) "hello"))
(assert (= (str.len x) 2))
(check-sat)
`
	res, sc := solveSrc(t, src)
	if res.Status != core.StatusSat {
		t.Fatalf("got %v", res.Status)
	}
	if res.Model.Str[sc.StrVars["x"]] != "he" {
		t.Fatalf("x = %q", res.Model.Str[sc.StrVars["x"]])
	}
	if !sc.CheckSat {
		t.Error("check-sat not detected")
	}
}

func TestParseToIntFromInt(t *testing.T) {
	src := `
(declare-fun s () String)
(declare-const n Int)
(assert (= n (str.to_int s)))
(assert (= n 42))
(assert (= (str.len s) 3))
(check-sat)
`
	res, sc := solveSrc(t, src)
	if res.Status != core.StatusSat {
		t.Fatalf("got %v", res.Status)
	}
	if res.Model.Str[sc.StrVars["s"]] != "042" {
		t.Fatalf("s = %q", res.Model.Str[sc.StrVars["s"]])
	}
	src2 := `
(declare-fun s () String)
(assert (= s (str.from_int 99)))
(check-sat)
`
	res2, sc2 := solveSrc(t, src2)
	if res2.Status != core.StatusSat || res2.Model.Str[sc2.StrVars["s"]] != "99" {
		t.Fatalf("from_int: %v", res2.Status)
	}
}

func TestParseRegexMembership(t *testing.T) {
	src := `
(declare-fun x () String)
(assert (str.in_re x (re.+ (re.range "0" "9"))))
(assert (not (str.in_re x (re.* (str.to_re "0")))))
(assert (= (str.len x) 2))
(check-sat)
`
	res, sc := solveSrc(t, src)
	if res.Status != core.StatusSat {
		t.Fatalf("got %v", res.Status)
	}
	got := res.Model.Str[sc.StrVars["x"]]
	if len(got) != 2 || got == "00" {
		t.Fatalf("x = %q", got)
	}
}

func TestParsePredicates(t *testing.T) {
	src := `
(declare-fun x () String)
(assert (str.prefixof "ab" x))
(assert (str.suffixof "yz" x))
(assert (str.contains x "m"))
(assert (= (str.len x) 5))
(check-sat)
`
	res, sc := solveSrc(t, src)
	if res.Status != core.StatusSat {
		t.Fatalf("got %v", res.Status)
	}
	got := res.Model.Str[sc.StrVars["x"]]
	if !strings.HasPrefix(got, "ab") || !strings.HasSuffix(got, "yz") || !strings.Contains(got, "m") {
		t.Fatalf("x = %q", got)
	}
}

func TestParseIteAndCharAt(t *testing.T) {
	src := `
(declare-fun v () String)
(declare-const d Int)
(declare-const e Int)
(assert (= d (str.to_int (str.at v 0))))
(assert (= e (ite (> (* 2 d) 9) (- (* 2 d) 9) (* 2 d))))
(assert (= e 3))
(assert (= (str.len v) 1))
(check-sat)
`
	res, sc := solveSrc(t, src)
	if res.Status != core.StatusSat {
		t.Fatalf("got %v", res.Status)
	}
	// e = 3 requires 2d-9 = 3 (d=6), since 2d = 3 has no integer d.
	if got := res.Model.Str[sc.StrVars["v"]]; got != "6" {
		t.Fatalf("v = %q, want 6", got)
	}
}

func TestParseUnsat(t *testing.T) {
	src := `
(declare-fun x () String)
(assert (= x "ab"))
(assert (= x "ba"))
(check-sat)
`
	res, _ := solveSrc(t, src)
	if res.Status != core.StatusUnsat {
		t.Fatalf("got %v", res.Status)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`(declare-fun x () Widget)`,
		`(assert (= x "a"))`,
		`(declare-fun f (Int) Int)`,
		`(assert (str.in_re "a" (re.magic)))(declare-fun y () String)`,
		`(`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	prob := strcon.NewProblem()
	x := prob.NewStrVar("x")
	n := prob.NewIntVar("n")
	prob.Add(
		&strcon.ToNum{N: n, X: x},
		&strcon.Arith{F: lia.EqConst(n, 42)},
		&strcon.Arith{F: lia.EqConst(prob.LenVar(x), 2)},
	)
	src, err := Write(prob)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	sc, err := Parse(src)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, src)
	}
	res := core.Solve(sc.Problem, core.Options{Timeout: 30 * time.Second})
	if res.Status != core.StatusSat {
		t.Fatalf("round-trip solve: %v\n%s", res.Status, src)
	}
	if got := res.Model.Str[sc.StrVars["x"]]; strcon.ToNumValue(got).Int64() != 42 {
		t.Fatalf("x = %q", got)
	}
}

func TestWriteRoundTripBigNumerals(t *testing.T) {
	twoTo63, _ := new(big.Int).SetString("9223372036854775808", 10)
	tenTo20, _ := new(big.Int).SetString("100000000000000000000", 10)
	for _, k := range []*big.Int{twoTo63, tenTo20} {
		prob := strcon.NewProblem()
		n := prob.NewIntVar("n")
		prob.Add(&strcon.Arith{F: lia.Eq(lia.V(n), lia.ConstBig(k))})
		src, err := Write(prob)
		if err != nil {
			t.Fatalf("write %v: %v", k, err)
		}
		sc, err := Parse(src)
		if err != nil {
			t.Fatalf("reparse %v: %v\n%s", k, err, src)
		}
		v := sc.IntVars["n"]
		at := func(x *big.Int) bool {
			return sc.Problem.Eval(&strcon.Assignment{Int: lia.Model{v: x}})
		}
		if !at(k) {
			t.Errorf("n = %v does not satisfy the reparsed problem\n%s", k, src)
		}
		if at(new(big.Int).Sub(k, big.NewInt(1))) {
			t.Errorf("n = %v - 1 satisfies the reparsed problem\n%s", k, src)
		}
	}
}

func TestParseBigNumeralUnsat(t *testing.T) {
	res, _ := solveSrc(t, `(assert (< 9223372036854775808 0))(check-sat)`)
	if res.Status != core.StatusUnsat {
		t.Fatalf("got %v, want unsat", res.Status)
	}
}

// requireOneBranch checks that a solve settled SAT as one conjunctive
// branch with one over-approximation probe: Prepare folded every
// pure-arithmetic disjunction into the formula lia branches on.
func requireOneBranch(t *testing.T, res core.Result) {
	t.Helper()
	if res.Status != core.StatusSat {
		t.Fatalf("got %v (%s), want sat", res.Status, res.Reason)
	}
	if got := res.Stats.Counter("branches"); got != 1 {
		t.Errorf("branches = %d, want 1", got)
	}
	if got := res.Stats.Child("overapprox").Counter("calls"); got != 1 {
		t.Errorf("overapprox/calls = %d, want 1", got)
	}
}

func TestLuhnThroughSMTLIBIsOneBranch(t *testing.T) {
	src, err := Write(bench.Luhn(8).Build())
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	res, _ := solveSrc(t, src)
	requireOneBranch(t, res)
}

func TestArithmeticIteIsOneBranch(t *testing.T) {
	src := `
(declare-fun x () String)
(declare-const d Int)
(declare-const e Int)
(assert (= d (str.to_int x)))
(assert (= (str.len x) 1))
(assert (= e (ite (> (* 2 d) 9) (- (* 2 d) 9) (* 2 d))))
(assert (= e 3))
(check-sat)
`
	res, sc := solveSrc(t, src)
	requireOneBranch(t, res)
	// e = 3 requires 2d-9 = 3 (d=6), since 2d = 3 has no integer d.
	if got := res.Model.Str[sc.StrVars["x"]]; got != "6" {
		t.Fatalf("x = %q, want 6", got)
	}
}

func TestLengthPinInDisjunctionKeepsExactRestriction(t *testing.T) {
	// The only pin on |x| sits inside an or or an ite condition, and x
	// must hold a non-periodic word longer than the first round's loop
	// restriction can represent. Split on the length, each live branch
	// gets the exact-length restriction and closes in round 1.
	for name, src := range map[string]string{
		"or": `
(declare-fun x () String)
(declare-fun y () String)
(assert (or (= (str.len x) 9) (= (str.len x) 11)))
(assert (= x (str.++ "abcdefgh" y)))
(check-sat)
`,
		"ite": `
(declare-fun x () String)
(declare-fun y () String)
(assert (= 1 (ite (= (str.len x) 12) 1 0)))
(assert (= x (str.++ y "nopqrstuvwxy")))
(check-sat)
`,
	} {
		t.Run(name, func(t *testing.T) {
			res, sc := solveSrc(t, src)
			if res.Status != core.StatusSat {
				t.Fatalf("got %v (%s), want sat", res.Status, res.Reason)
			}
			if res.Rounds != 1 {
				t.Errorf("rounds = %d, want 1", res.Rounds)
			}
			if got := res.Model.Str[sc.StrVars["x"]]; len(got) != 9 && len(got) != 11 && len(got) != 12 {
				t.Errorf("x = %q has no pinned length", got)
			}
		})
	}
}

func TestWriteMembershipPattern(t *testing.T) {
	prob := strcon.NewProblem()
	x := prob.NewStrVar("x")
	prob.Add(&strcon.Membership{X: x, A: nil, Pattern: "(ab|cd)+[0-9]"})
	src, err := Write(prob)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.Contains(src, "re.union") || !strings.Contains(src, "re.range") {
		t.Fatalf("pattern not converted:\n%s", src)
	}
}
