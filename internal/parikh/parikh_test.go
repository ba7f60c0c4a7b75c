package parikh

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/lia"
)

// realizable reports whether some accepting run from a.Init to a.Final
// uses each edge exactly counts[i] times (Euler-path style search). A
// memo of the (state, remaining counts) pairs already found to be dead
// ends keeps the search polynomial in the count box. The counts are
// small, so the remaining ones are kept as bytes that form the key.
func realizable(a Automaton, counts []int) bool {
	total := 0
	remaining := make([]byte, len(counts))
	for i, c := range counts {
		total += c
		remaining[i] = byte(c)
	}
	dead := map[string]bool{}
	var dfs func(state, left int) bool
	dfs = func(state, left int) bool {
		if left == 0 {
			return state == a.Final
		}
		key := string(append(remaining[:len(remaining):len(remaining)], byte(state)))
		if dead[key] {
			return false
		}
		for i, e := range a.Edges {
			if e.From == state && remaining[i] > 0 {
				remaining[i]--
				ok := dfs(e.To, left-1)
				remaining[i]++
				if ok {
					return true
				}
			}
		}
		dead[key] = true
		return false
	}
	return dfs(a.Init, total)
}

func enumVectors(n, max int, visit func([]int)) {
	vec := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			visit(vec)
			return
		}
		for v := 0; v <= max; v++ {
			vec[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// pinned is the model that sets each flow variable to its count.
func pinned(flow []lia.Var, counts []int) lia.Model {
	m := lia.Model{}
	for i, c := range counts {
		m[flow[i]] = big.NewInt(int64(c))
	}
	return m
}

// flowDecider decides the flow-only formula fo with flow pinned to
// counts. On success it returns the model the connectivity screen
// reads.
type flowDecider func(fo lia.Formula, flow []lia.Var, counts []int) (lia.Model, bool)

// checkLazy decides every count vector with entries <= maxCount the way
// a solve does: decide the flow-only formula at the pinned counts, then
// screen the model's used edges with Disconnected. It requires three
// things: the decision equals realizable; the cut built for a
// disconnected vector excludes that vector; and no cut excludes a
// realizable vector of the box.
func checkLazy(t *testing.T, a Automaton, maxCount int, decide flowDecider) {
	t.Helper()
	pool := lia.NewPool()
	flow := make([]lia.Var, len(a.Edges))
	for i := range flow {
		flow[i] = pool.Fresh("y")
	}
	fo := FlowOnly(a, flow)
	cuts := map[string]lia.Formula{} // by violated component
	var genuine [][]int
	enumVectors(len(a.Edges), maxCount, func(vec []int) {
		want := realizable(a, vec)
		if want {
			genuine = append(genuine, append([]int(nil), vec...))
		}
		got := false
		if m, ok := decide(fo, flow, vec); ok {
			used := make([]bool, len(flow))
			for i, f := range flow {
				used[i] = m.Value(f).Sign() > 0
			}
			comp, connected := Disconnected(a, used)
			got = connected
			if !connected {
				cut := CutFormula(a, flow, comp)
				if lia.Eval(cut, pinned(flow, vec)) {
					t.Fatalf("automaton %+v counts %v: the cut for component %v does not exclude them",
						a, vec, comp)
				}
				cuts[fmt.Sprint(comp)] = cut
			}
		}
		if got != want {
			t.Fatalf("automaton %+v counts %v: lazy decision=%v realizable=%v", a, vec, got, want)
		}
	})
	for comp, cut := range cuts {
		for _, vec := range genuine {
			if !lia.Eval(cut, pinned(flow, vec)) {
				t.Fatalf("automaton %+v: the cut for component %s excludes realizable counts %v",
					a, comp, vec)
			}
		}
	}
}

// checkAutomaton runs checkLazy with the flow formula decided by
// lia.Solve, as the solver decides it.
func checkAutomaton(t *testing.T, a Automaton, maxCount int) {
	t.Helper()
	checkLazy(t, a, maxCount, func(fo lia.Formula, flow []lia.Var, counts []int) (lia.Model, bool) {
		conj := []lia.Formula{fo}
		for i, c := range counts {
			conj = append(conj, lia.EqConst(flow[i], int64(c)))
		}
		res, m := lia.Solve(lia.And(conj...), nil)
		if res == lia.ResUnknown {
			t.Fatalf("automaton %+v: unexpected unknown for counts %v", a, counts)
		}
		return m, res == lia.ResSat
	})
}

// The hand-picked automata of the unit tests; they also seed
// FuzzLazyConnectivity.
var (
	linearChain = Automaton{NumStates: 3, Init: 0, Final: 2, Edges: []Edge{{0, 1}, {1, 2}}}
	selfLoop    = Automaton{NumStates: 2, Init: 0, Final: 1, Edges: []Edge{{0, 0}, {0, 1}}}
	// A disconnected cycle 2->3->2 must not be usable.
	cycleNotConnected = Automaton{NumStates: 4, Init: 0, Final: 1, Edges: []Edge{{0, 1}, {2, 3}, {3, 2}}}
	initEqualsFinal   = Automaton{NumStates: 2, Init: 0, Final: 0, Edges: []Edge{{0, 1}, {1, 0}}}
	diamond           = Automaton{NumStates: 4, Init: 0, Final: 3, Edges: []Edge{
		{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0},
	}}
)

func TestLinearChain(t *testing.T) { checkAutomaton(t, linearChain, 2) }

func TestSelfLoop(t *testing.T) { checkAutomaton(t, selfLoop, 3) }

func TestCycleNotConnected(t *testing.T) { checkAutomaton(t, cycleNotConnected, 2) }

func TestInitEqualsFinal(t *testing.T) { checkAutomaton(t, initEqualsFinal, 3) }

func TestDiamond(t *testing.T) { checkAutomaton(t, diamond, 2) }

func TestPropertyRandomAutomata(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-check is slow")
	}
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 12; iter++ {
		states := 2 + rng.Intn(3)
		edges := 2 + rng.Intn(4)
		a := Automaton{NumStates: states, Init: 0, Final: rng.Intn(states)}
		for i := 0; i < edges; i++ {
			a.Edges = append(a.Edges, Edge{From: rng.Intn(states), To: rng.Intn(states)})
		}
		checkAutomaton(t, a, 2)
	}
}

// Fuzz inputs encode an automaton as bytes: the state count minus one,
// the initial state, the final state, the edge count, then one
// (from, to) pair per edge. Each byte is reduced into range and missing
// bytes read as 0, so every input decodes to an automaton with 1 to
// fuzzMaxStates states and at most fuzzMaxEdges edges.
const (
	fuzzMaxStates = 5
	fuzzMaxEdges  = 6
)

func decodeAutomaton(in []byte) Automaton {
	at := func(i int) int {
		if i < len(in) {
			return int(in[i])
		}
		return 0
	}
	n := 1 + at(0)%fuzzMaxStates
	a := Automaton{NumStates: n, Init: at(1) % n, Final: at(2) % n}
	for i := 0; i < at(3)%(fuzzMaxEdges+1); i++ {
		a.Edges = append(a.Edges, Edge{From: at(4+2*i) % n, To: at(5+2*i) % n})
	}
	return a
}

func encodeAutomaton(a Automaton) []byte {
	out := []byte{byte(a.NumStates - 1), byte(a.Init), byte(a.Final), byte(len(a.Edges))}
	for _, e := range a.Edges {
		out = append(out, byte(e.From), byte(e.To))
	}
	return out
}

// FuzzLazyConnectivity runs checkLazy on the automaton its input
// encodes, over every count vector with entries <= 2. The flow formula
// is evaluated at the pinned counts rather than solved, which decides
// it the same way (every variable is pinned) and keeps each run cheap.
// The seed corpus is the fixed automata of the unit tests.
func FuzzLazyConnectivity(f *testing.F) {
	for _, a := range []Automaton{linearChain, selfLoop, cycleNotConnected, initEqualsFinal, diamond} {
		f.Add(encodeAutomaton(a))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		a := decodeAutomaton(in)
		checkLazy(t, a, 2, func(fo lia.Formula, flow []lia.Var, counts []int) (lia.Model, bool) {
			m := pinned(flow, counts)
			return m, lia.Eval(fo, m)
		})
	})
}
