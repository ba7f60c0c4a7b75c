// Package parikh decides, for a finite automaton, which per-edge count
// vectors are Parikh images of its accepting runs (paper Lemma 2.1).
// It follows Verma, Seidl, and Schwentick: a count vector is the image
// of a run from the initial to the final state exactly when it
// satisfies Euler-path flow conservation and its used edges are
// connected to the initial state. FlowOnly emits the linear part;
// connectivity is checked lazily on candidate models, with Disconnected
// finding a violated component and CutFormula building the lemma that
// excludes it.
//
// The string solver applies it to asynchronous products of parametric
// automata when building synchronization formulas (paper §7), and to
// regular constraints in the over-approximation.
package parikh

import "repro/internal/lia"

// Edge is a directed edge of the automaton graph. Labels are irrelevant
// here; callers keep the edge order and attach meaning to the flow
// variables.
type Edge struct {
	From, To int
}

// Automaton is the graph view of a finite automaton with one initial
// and one final state.
type Automaton struct {
	NumStates int
	Init      int
	Final     int
	Edges     []Edge
}

// FlowOnly returns the flow-conservation part of the Parikh encoding:
// non-negativity plus Euler-path flow balance. Its models
// over-approximate the Parikh images of accepting runs — used-edge
// connectivity is not enforced. Pair it with Disconnected/CutFormula
// for lazy connectivity refinement.
func FlowOnly(a Automaton, flow []lia.Var) lia.Formula {
	if len(flow) != len(a.Edges) {
		// contract: callers allocate one flow variable per edge.
		panic("parikh: flow variable count mismatch")
	}
	var conj []lia.Formula
	for _, f := range flow {
		conj = append(conj, lia.Ge(lia.V(f), lia.Const(0)))
	}
	in := make([][]int, a.NumStates)
	out := make([][]int, a.NumStates)
	for i, e := range a.Edges {
		out[e.From] = append(out[e.From], i)
		in[e.To] = append(in[e.To], i)
	}
	for q := 0; q < a.NumStates; q++ {
		e := lia.NewLin()
		for _, i := range in[q] {
			e.AddTermInt(flow[i], 1)
		}
		for _, i := range out[q] {
			e.AddTermInt(flow[i], -1)
		}
		rhs := int64(0)
		if q == a.Final {
			rhs++
		}
		if q == a.Init {
			rhs--
		}
		conj = append(conj, lia.Eq(e, lia.Const(rhs)))
	}
	return lia.And(conj...)
}

// Disconnected checks the used-edge subgraph of a flow assignment. It
// returns a set of states that carry used edges but are unreachable
// from Init through used edges, or ok=true when the flow is connected
// (and hence a genuine Parikh image, given flow conservation).
func Disconnected(a Automaton, used []bool) (component []int, ok bool) {
	touched := make([]bool, a.NumStates)
	for i, e := range a.Edges {
		if used[i] {
			touched[e.From] = true
			touched[e.To] = true
		}
	}
	reach := make([]bool, a.NumStates)
	reach[a.Init] = true
	stack := []int{a.Init}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, e := range a.Edges {
			if used[i] && e.From == s && !reach[e.To] {
				reach[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	for q := 0; q < a.NumStates; q++ {
		if touched[q] && !reach[q] {
			component = append(component, q)
		}
	}
	if len(component) == 0 {
		return nil, true
	}
	return component, false
}

// CutFormula builds the connectivity cut for a violated component C:
// either some edge entering C from outside is used, or every edge
// leaving a state of C is unused. Every true Parikh image satisfies it,
// and it excludes the flows for which Disconnected returned C.
func CutFormula(a Automaton, flow []lia.Var, component []int) lia.Formula {
	inC := make(map[int]bool, len(component))
	for _, q := range component {
		inC[q] = true
	}
	enter := lia.NewLin()
	leave := lia.NewLin()
	for i, e := range a.Edges {
		if inC[e.To] && !inC[e.From] {
			enter.AddTermInt(flow[i], 1)
		}
		if inC[e.From] {
			leave.AddTermInt(flow[i], 1)
		}
	}
	return lia.Or(
		lia.Ge(enter, lia.Const(1)),
		lia.Eq(leave, lia.Const(0)),
	)
}
