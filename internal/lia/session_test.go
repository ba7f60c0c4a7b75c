package lia

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
)

func TestSessionRoundsSupersede(t *testing.T) {
	pool := NewPool()
	x := pool.Fresh("x")
	y := pool.Fresh("y")
	sess := NewSession(nil)
	sess.AddPersistent(Eq(NewLin().AddTermInt(x, 1).AddTermInt(y, 1), Const(10)))

	// Round 1: x >= 8 and y >= 8 contradicts x+y = 10.
	r1 := And(Ge(V(x), Const(8)), Ge(V(y), Const(8)))
	res, _ := sess.SolveRound(r1, nil, nil)
	if res != ResUnsat {
		t.Fatalf("round 1 = %v, want unsat", res)
	}
	if sess.Dead() {
		t.Fatalf("round-level unsat must not kill the session")
	}

	// Round 2 relaxes the bounds; round 1's constraints must be gone.
	r2 := And(Ge(V(x), Const(3)), Ge(V(y), Const(3)))
	res, m := sess.SolveRound(r2, nil, nil)
	if res != ResSat {
		t.Fatalf("round 2 = %v, want sat", res)
	}
	sum := new(big.Int).Add(m.Value(x), m.Value(y))
	if sum.Int64() != 10 || m.Value(x).Int64() < 3 || m.Value(y).Int64() < 3 {
		t.Fatalf("round 2 model x=%v y=%v violates constraints", m.Value(x), m.Value(y))
	}
}

func TestSessionDeadPersistentBase(t *testing.T) {
	pool := NewPool()
	x := pool.Fresh("x")
	sess := NewSession(nil)
	sess.AddPersistent(Ge(V(x), Const(5)))
	sess.AddPersistent(Le(V(x), Const(3)))
	if !sess.Dead() {
		// The contradiction may only surface at the first solve when the
		// presolver cannot fold it; either way the round must be unsat.
		res, _ := sess.SolveRound(Bool(true), nil, nil)
		if res != ResUnsat {
			t.Fatalf("round on dead base = %v, want unsat", res)
		}
	}
	if !sess.Dead() {
		t.Fatalf("contradictory persistent base must mark the session dead")
	}
	res, _ := sess.SolveRound(Ge(V(x), Const(0)), nil, nil)
	if res != ResUnsat {
		t.Fatalf("round after death = %v, want unsat", res)
	}
}

func TestSessionTrivialRounds(t *testing.T) {
	sess := NewSession(nil)
	res, m := sess.SolveRound(Bool(true), nil, nil)
	if res != ResSat || m == nil {
		t.Fatalf("true round = %v %v, want sat with empty model", res, m)
	}
	res, _ = sess.SolveRound(Bool(false), nil, nil)
	if res != ResUnsat || sess.Dead() {
		t.Fatalf("false round = %v dead=%v, want round-level unsat", res, sess.Dead())
	}
	res, _ = sess.SolveRound(Bool(true), nil, nil)
	if res != ResSat {
		t.Fatalf("true round after false round = %v, want sat", res)
	}
}

// TestSessionAgainstFreshSolve is the differential check of the
// incremental engine: for a fixed case and for random persistent bases
// and round sequences, every SolveRound verdict must match a cold Solve
// of base ∧ round, and every model must satisfy base ∧ round. check
// returns the verdicts.
func TestSessionAgainstFreshSolve(t *testing.T) {
	check := func(name string, pool *Pool, base Formula, rounds []Formula) []Result {
		t.Helper()
		sess := NewSession(nil)
		sess.AddPersistent(base)
		verdicts := make([]Result, len(rounds))
		for r, f := range rounds {
			got, m := sess.SolveRound(f, nil, nil)
			verdicts[r] = got
			want, _ := Solve(And(base, f), nil)
			if got != want {
				t.Fatalf("%s round %d: session=%v fresh=%v\nbase=%s\nround=%s",
					name, r, got, want, String(base, pool), String(f, pool))
			}
			if got == ResSat {
				if !Eval(base, m) || !Eval(f, m) {
					t.Fatalf("%s round %d: session model violates base or round", name, r)
				}
			}
		}
		return verdicts
	}

	// The first round creates the bounds x+y <= 2 and x+y <= 7. With it
	// switched off, the second round adds x+y <= 4 between them and
	// holds 3 <= x+y <= 4, which the first round excluded. The third
	// adds x+y <= 1 and x+y <= 8 outside them and is refuted by the
	// chain alone.
	pool := NewPool()
	x, y := pool.Fresh("x"), pool.Fresh("y")
	sum := func() *LinExpr { return V(x).Add(V(y)) }
	got := check("chain", pool, And(Ge(V(x), Const(0)), Ge(V(y), Const(0))), []Formula{
		Or(Le(sum(), Const(2)), Ge(sum(), Const(8))),
		And(Ge(sum(), Const(3)), Le(sum(), Const(4))),
		And(Or(Le(sum(), Const(1)), Ge(sum(), Const(9))), Ge(sum(), Const(3)), Le(sum(), Const(6))),
	})
	if want := []Result{ResSat, ResSat, ResUnsat}; !slices.Equal(got, want) {
		t.Fatalf("chain: verdicts %v, want %v", got, want)
	}

	rng := rand.New(rand.NewSource(11))
	randAtom := func(vars []Var) Formula {
		e := NewLin()
		terms := 1 + rng.Intn(2)
		for i := 0; i < terms; i++ {
			e.AddTermInt(vars[rng.Intn(len(vars))], int64(rng.Intn(5)-2))
		}
		e.AddConst(int64(rng.Intn(21) - 10))
		switch rng.Intn(3) {
		case 0:
			return Le(e, Const(0))
		case 1:
			return Ge(e, Const(0))
		default:
			return Eq(e, Const(0))
		}
	}
	randConj := func(vars []Var, n int) Formula {
		var conj []Formula
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				conj = append(conj, Or(randAtom(vars), randAtom(vars)))
			} else {
				conj = append(conj, randAtom(vars))
			}
		}
		return And(conj...)
	}

	for iter := 0; iter < 40; iter++ {
		pool := NewPool()
		vars := make([]Var, 4)
		for i := range vars {
			vars[i] = pool.Fresh("v")
		}
		base := randConj(vars, 1+rng.Intn(3))
		rounds := make([]Formula, 4)
		for r := range rounds {
			rounds[r] = randConj(vars, 1+rng.Intn(3))
		}
		check(fmt.Sprintf("iter %d", iter), pool, base, rounds)
	}
}

// TestSolveStatsTree checks the statistics a one-shot Solve records. The
// benchmark's per-layer metrics read these keys; lia/time.presolve in
// particular is the over-approximation's presolve time.
func TestSolveStatsTree(t *testing.T) {
	pool := NewPool()
	x := pool.Fresh("x")
	y := pool.Fresh("y")
	f := And(
		Ge(V(x), Const(0)), Ge(V(y), Const(0)),
		Le(NewLin().AddTermInt(x, 1).AddTermInt(y, 1), Const(3)),
		Or(Ge(V(x), Const(5)), Ge(V(y), Const(5))),
	)
	ec := engine.Background()
	if res, _ := Solve(f, &Options{Ctx: ec}); res != ResUnsat {
		t.Fatalf("Solve = %v, want unsat", res)
	}
	snap := ec.Stats().Snapshot()
	node := func(name string) *engine.Snapshot {
		n := snap.Children[name]
		if n == nil {
			t.Fatalf("stats tree has no %q node", name)
		}
		return n
	}
	lia, satNode, sx := node("lia"), node("sat"), node("simplex")
	if _, ok := lia.Counters["atoms"]; !ok {
		t.Error("missing lia/atoms")
	}
	for _, timer := range []string{"time.presolve", "time.search"} {
		if _, ok := lia.TimersNS[timer]; !ok {
			t.Errorf("missing lia/%s", timer)
		}
	}
	if _, ok := satNode.Counters["conflicts"]; !ok {
		t.Error("missing sat/conflicts")
	}
	if _, ok := sx.Counters["pivots"]; !ok {
		t.Error("missing simplex/pivots")
	}
}
