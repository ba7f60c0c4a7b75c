package smtlib

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/automata"
	"repro/internal/lia"
	"repro/internal/strcon"
)

// Script is the result of parsing an SMT-LIB file: a problem plus the
// name bindings needed to print models.
type Script struct {
	Problem *strcon.Problem
	// StrVars and IntVars map declared names to problem variables.
	StrVars map[string]strcon.Var
	IntVars map[string]lia.Var
	// CheckSat reports whether the script contained (check-sat).
	CheckSat bool
	// Logic is the declared logic, if any.
	Logic string
}

// Parse reads an SMT-LIB script in the supported fragment. The parse
// paths are error-based throughout; the deferred recover is the
// backstop of that policy — parsing is the most input-exposed code in
// the tree, and a panic slipping through must become a parse error,
// never kill a serving process.
func Parse(src string) (script *Script, err error) {
	defer func() {
		if v := recover(); v != nil {
			script, err = nil, fmt.Errorf("smtlib: internal parse failure: %v", v)
		}
	}()
	forms, err := parseSExprs(src)
	if err != nil {
		return nil, err
	}
	t := &translator{
		script: &Script{
			Problem: strcon.NewProblem(),
			StrVars: map[string]strcon.Var{},
			IntVars: map[string]lia.Var{},
		},
		sorts: map[string]string{},
	}
	for _, f := range forms {
		if err := t.command(f); err != nil {
			return nil, err
		}
	}
	t.script.Problem.Add(t.aux...)
	return t.script, nil
}

type translator struct {
	script *Script
	sorts  map[string]string // name -> "String" | "Int" | "Bool"
	aux    []strcon.Constraint
	fresh  int
	depth  int // term recursion depth (bounded by maxParseDepth)
}

// enter bounds the recursion of the mutually recursive term
// translators. The lexer already bounds node nesting, so this is
// defense in depth against translator-internal expansion.
func (t *translator) enter(n *node) error {
	t.depth++
	if t.depth > maxParseDepth {
		return t.errf(n, "term nesting exceeds depth budget (%d)", maxParseDepth)
	}
	return nil
}

func (t *translator) leave() { t.depth-- }

func (t *translator) errf(n *node, format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s (in %s)", n.line, fmt.Sprintf(format, args...), truncate(n.String()))
}

func truncate(s string) string {
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

func (t *translator) command(n *node) error {
	if n.list == nil || len(n.list) == 0 {
		return t.errf(n, "expected a command list")
	}
	head := n.list[0]
	switch head.atom {
	case "set-logic":
		if len(n.list) > 1 {
			t.script.Logic = n.list[1].atom
		}
		return nil
	case "set-info", "set-option", "get-model", "exit", "push", "pop", "get-info":
		return nil
	case "check-sat":
		t.script.CheckSat = true
		return nil
	case "declare-fun":
		if len(n.list) != 4 || n.list[2].list == nil {
			return t.errf(n, "unsupported declare-fun shape")
		}
		if len(n.list[2].list) != 0 {
			return t.errf(n, "only nullary functions are supported")
		}
		return t.declare(n.list[1].atom, n.list[3], n)
	case "declare-const":
		if len(n.list) != 3 {
			return t.errf(n, "unsupported declare-const shape")
		}
		return t.declare(n.list[1].atom, n.list[2], n)
	case "assert":
		if len(n.list) != 2 {
			return t.errf(n, "assert takes one term")
		}
		c, err := t.boolTerm(n.list[1], true)
		if err != nil {
			return err
		}
		t.script.Problem.Add(c)
		return nil
	}
	return t.errf(n, "unsupported command %q", head.atom)
}

func (t *translator) declare(name string, sort *node, ctx *node) error {
	switch sort.atom {
	case "String":
		t.script.StrVars[name] = t.script.Problem.NewStrVar(name)
	case "Int":
		t.script.IntVars[name] = t.script.Problem.NewIntVar(name)
	default:
		return t.errf(ctx, "unsupported sort %q", sort.atom)
	}
	t.sorts[name] = sort.atom
	return nil
}

// sortOf infers String/Int for a term (enough for dispatching "=").
func (t *translator) sortOf(n *node) string {
	if n.list == nil {
		if n.str {
			return "String"
		}
		if s, ok := t.sorts[n.atom]; ok {
			return s
		}
		if _, ok := new(big.Int).SetString(n.atom, 10); ok {
			return "Int"
		}
		return ""
	}
	if len(n.list) == 0 {
		return ""
	}
	switch n.list[0].atom {
	case "str.++", "str.at", "str.substr", "str.from_int", "str.from.int", "str.replace":
		return "String"
	case "str.len", "str.to_int", "str.to.int", "+", "-", "*", "div", "mod", "abs":
		return "Int"
	case "ite":
		if len(n.list) == 4 {
			return t.sortOf(n.list[2])
		}
	}
	return ""
}

// boolTerm translates a boolean term under a polarity.
func (t *translator) boolTerm(n *node, pos bool) (strcon.Constraint, error) {
	if n.list == nil {
		switch n.atom {
		case "true":
			return boolCon(pos), nil
		case "false":
			return boolCon(!pos), nil
		}
		return nil, t.errf(n, "boolean variables are not supported")
	}
	if len(n.list) == 0 {
		return nil, t.errf(n, "empty term")
	}
	if err := t.enter(n); err != nil {
		return nil, err
	}
	defer t.leave()
	op := n.list[0].atom
	args := n.list[1:]
	switch op {
	case "not":
		if len(args) != 1 {
			return nil, t.errf(n, "not takes one argument")
		}
		return t.boolTerm(args[0], !pos)
	case "and", "or":
		isAnd := (op == "and") == pos
		var out []strcon.Constraint
		for _, a := range args {
			c, err := t.boolTerm(a, pos)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
		if isAnd {
			return &strcon.AndCon{Args: out}, nil
		}
		return &strcon.OrCon{Args: out}, nil
	case "=>":
		if len(args) != 2 {
			return nil, t.errf(n, "=> takes two arguments")
		}
		na, err := t.boolTerm(args[0], !pos)
		if err != nil {
			return nil, err
		}
		nb, err := t.boolTerm(args[1], pos)
		if err != nil {
			return nil, err
		}
		if pos {
			return &strcon.OrCon{Args: []strcon.Constraint{na, nb}}, nil
		}
		return &strcon.AndCon{Args: []strcon.Constraint{na, nb}}, nil
	case "=", "distinct":
		eq := (op == "=") == pos
		if len(args) != 2 {
			return nil, t.errf(n, "%s takes two arguments", op)
		}
		if t.sortOf(args[0]) == "String" || t.sortOf(args[1]) == "String" {
			l, err := t.strTerm(args[0])
			if err != nil {
				return nil, err
			}
			r, err := t.strTerm(args[1])
			if err != nil {
				return nil, err
			}
			if eq {
				return &strcon.WordEq{L: l, R: r}, nil
			}
			return &strcon.WordNeq{L: l, R: r}, nil
		}
		l, err := t.intExpr(args[0])
		if err != nil {
			return nil, err
		}
		r, err := t.intExpr(args[1])
		if err != nil {
			return nil, err
		}
		if eq {
			return &strcon.Arith{F: lia.Eq(l, r)}, nil
		}
		return &strcon.Arith{F: lia.Ne(l, r)}, nil
	case "<", "<=", ">", ">=":
		if len(args) != 2 {
			return nil, t.errf(n, "%s takes two arguments", op)
		}
		l, err := t.intExpr(args[0])
		if err != nil {
			return nil, err
		}
		r, err := t.intExpr(args[1])
		if err != nil {
			return nil, err
		}
		var f lia.Formula
		switch op {
		case "<":
			f = lia.Lt(l, r)
		case "<=":
			f = lia.Le(l, r)
		case ">":
			f = lia.Gt(l, r)
		default:
			f = lia.Ge(l, r)
		}
		if !pos {
			f = lia.Negate(f)
		}
		return &strcon.Arith{F: f}, nil
	case "str.in_re", "str.in.re":
		if len(args) != 2 {
			return nil, t.errf(n, "%s takes two arguments", op)
		}
		x, err := t.strVarOf(args[0])
		if err != nil {
			return nil, err
		}
		re, err := t.reTerm(args[1])
		if err != nil {
			return nil, err
		}
		return &strcon.Membership{X: x, A: re, Neg: !pos, Pattern: args[1].String()}, nil
	case "str.prefixof", "str.suffixof":
		return t.fixof(n, op == "str.prefixof", pos)
	case "str.contains":
		return t.contains(n, pos)
	}
	return nil, t.errf(n, "unsupported boolean operator %q", op)
}

func boolCon(b bool) strcon.Constraint {
	if b {
		return &strcon.Arith{F: lia.True}
	}
	return &strcon.Arith{F: lia.False}
}

// fixof translates (str.prefixof s t) / (str.suffixof s t).
func (t *translator) fixof(n *node, prefix, pos bool) (strcon.Constraint, error) {
	args := n.list[1:]
	if len(args) != 2 {
		return nil, t.errf(n, "prefixof/suffixof take two arguments")
	}
	s, err := t.strTerm(args[0])
	if err != nil {
		return nil, err
	}
	tt, err := t.strTerm(args[1])
	if err != nil {
		return nil, err
	}
	prob := t.script.Problem
	if pos {
		rest := prob.NewStrVar(t.freshName("rest"))
		var r strcon.Term
		if prefix {
			r = append(append(strcon.Term{}, s...), strcon.TV(rest))
		} else {
			r = append(strcon.Term{strcon.TV(rest)}, s...)
		}
		return &strcon.WordEq{L: tt, R: r}, nil
	}
	// Negative: |t| < |s|, or the aligned part differs.
	part := prob.NewStrVar(t.freshName("part"))
	rest := prob.NewStrVar(t.freshName("rest"))
	var split strcon.Term
	if prefix {
		split = strcon.T(strcon.TV(part), strcon.TV(rest))
	} else {
		split = strcon.T(strcon.TV(rest), strcon.TV(part))
	}
	sLen := prob.LenExpr(s)
	return &strcon.OrCon{Args: []strcon.Constraint{
		&strcon.Arith{F: lia.Lt(prob.LenExpr(tt), sLen)},
		&strcon.AndCon{Args: []strcon.Constraint{
			&strcon.WordEq{L: tt, R: split},
			&strcon.Arith{F: lia.Eq(lia.V(prob.LenVar(part)), sLen.Clone())},
			&strcon.WordNeq{L: strcon.T(strcon.TV(part)), R: s},
		}},
	}}, nil
}

// contains translates (str.contains t s): t contains s.
func (t *translator) contains(n *node, pos bool) (strcon.Constraint, error) {
	args := n.list[1:]
	if len(args) != 2 {
		return nil, t.errf(n, "contains takes two arguments")
	}
	tt, err := t.strTerm(args[0])
	if err != nil {
		return nil, err
	}
	s, err := t.strTerm(args[1])
	if err != nil {
		return nil, err
	}
	prob := t.script.Problem
	if pos {
		a := prob.NewStrVar(t.freshName("ct_a"))
		b := prob.NewStrVar(t.freshName("ct_b"))
		mid := append(strcon.Term{strcon.TV(a)}, s...)
		mid = append(mid, strcon.TV(b))
		return &strcon.WordEq{L: tt, R: mid}, nil
	}
	// Negative containment: supported for constant needles through a
	// complemented automaton.
	if len(s) != 1 || s[0].IsVar {
		return nil, t.errf(n, "negated str.contains needs a constant needle")
	}
	needle := s[0].Const
	any := automata.AnyStar()
	pat := automata.Concat(automata.Concat(any, automata.Word(alphabet.Encode(needle))), automata.AnyStar())
	x, err := t.bindTerm(tt)
	if err != nil {
		return nil, err
	}
	return &strcon.Membership{X: x, A: pat, Neg: true, Pattern: ".*" + needle + ".*"}, nil
}

// strVarOf coerces a term to a single string variable, binding complex
// terms to a fresh variable.
func (t *translator) strVarOf(n *node) (strcon.Var, error) {
	tm, err := t.strTerm(n)
	if err != nil {
		return 0, err
	}
	return t.bindTerm(tm)
}

func (t *translator) bindTerm(tm strcon.Term) (strcon.Var, error) {
	if len(tm) == 1 && tm[0].IsVar {
		return tm[0].V, nil
	}
	v := t.script.Problem.NewStrVar(t.freshName("bind"))
	t.aux = append(t.aux, &strcon.WordEq{L: strcon.T(strcon.TV(v)), R: tm})
	return v, nil
}

func (t *translator) freshName(base string) string {
	t.fresh++
	return fmt.Sprintf("%s!%d", base, t.fresh)
}

// strTerm translates a string-valued term, introducing auxiliary
// definitional constraints for str.at/str.substr/str.from_int.
func (t *translator) strTerm(n *node) (strcon.Term, error) {
	if n.list == nil {
		if n.str {
			return strcon.T(strcon.TC(n.atom)), nil
		}
		if v, ok := t.script.StrVars[n.atom]; ok {
			return strcon.T(strcon.TV(v)), nil
		}
		return nil, t.errf(n, "unknown string symbol %q", n.atom)
	}
	if len(n.list) == 0 {
		return nil, t.errf(n, "empty term")
	}
	if err := t.enter(n); err != nil {
		return nil, err
	}
	defer t.leave()
	op := n.list[0].atom
	args := n.list[1:]
	prob := t.script.Problem
	switch op {
	case "str.++":
		var out strcon.Term
		for _, a := range args {
			part, err := t.strTerm(a)
			if err != nil {
				return nil, err
			}
			out = append(out, part...)
		}
		return out, nil
	case "str.at":
		if len(args) != 2 {
			return nil, t.errf(n, "str.at takes two arguments")
		}
		x, err := t.strVarOf(args[0])
		if err != nil {
			return nil, err
		}
		i, err := t.intExpr(args[1])
		if err != nil {
			return nil, err
		}
		y := prob.NewStrVar(t.freshName("at"))
		t.aux = append(t.aux, prob.CharAt(y, x, i))
		return strcon.T(strcon.TV(y)), nil
	case "str.substr":
		if len(args) != 3 {
			return nil, t.errf(n, "str.substr takes three arguments")
		}
		x, err := t.strVarOf(args[0])
		if err != nil {
			return nil, err
		}
		i, err := t.intExpr(args[1])
		if err != nil {
			return nil, err
		}
		l, err := t.intExpr(args[2])
		if err != nil {
			return nil, err
		}
		y := prob.NewStrVar(t.freshName("ss"))
		t.aux = append(t.aux, prob.Substr(y, x, i, l))
		return strcon.T(strcon.TV(y)), nil
	case "str.from_int", "str.from.int":
		if len(args) != 1 {
			return nil, t.errf(n, "%s takes one argument", op)
		}
		e, err := t.intExpr(args[0])
		if err != nil {
			return nil, err
		}
		nv := prob.Lia.Fresh(t.freshName("fi"))
		t.aux = append(t.aux, &strcon.Arith{F: lia.Eq(lia.V(nv), e)})
		y := prob.NewStrVar(t.freshName("fs"))
		t.aux = append(t.aux, &strcon.ToStr{N: nv, X: y})
		return strcon.T(strcon.TV(y)), nil
	}
	return nil, t.errf(n, "unsupported string operator %q", op)
}

// intExpr translates an integer term to a linear expression.
func (t *translator) intExpr(n *node) (*lia.LinExpr, error) {
	if n.list == nil {
		if v, ok := t.script.IntVars[n.atom]; ok {
			return lia.V(v), nil
		}
		// lia is arbitrary precision, and Write prints constants past
		// int64, so numerals are read at any size.
		if k, ok := new(big.Int).SetString(n.atom, 10); ok {
			return lia.ConstBig(k), nil
		}
		return nil, t.errf(n, "unknown integer symbol %q", n.atom)
	}
	if len(n.list) == 0 {
		return nil, t.errf(n, "empty term")
	}
	if err := t.enter(n); err != nil {
		return nil, err
	}
	defer t.leave()
	op := n.list[0].atom
	args := n.list[1:]
	switch op {
	case "+":
		out := lia.NewLin()
		for _, a := range args {
			e, err := t.intExpr(a)
			if err != nil {
				return nil, err
			}
			out.Add(e)
		}
		return out, nil
	case "-":
		if len(args) == 0 {
			return nil, t.errf(n, "- takes at least one argument")
		}
		if len(args) == 1 {
			e, err := t.intExpr(args[0])
			if err != nil {
				return nil, err
			}
			return e.Clone().Neg(), nil
		}
		out, err := t.intExpr(args[0])
		if err != nil {
			return nil, err
		}
		out = out.Clone()
		for _, a := range args[1:] {
			e, err := t.intExpr(a)
			if err != nil {
				return nil, err
			}
			out.Sub(e)
		}
		return out, nil
	case "*":
		if len(args) != 2 {
			return nil, t.errf(n, "* takes two arguments")
		}
		a, errA := t.intExpr(args[0])
		b, errB := t.intExpr(args[1])
		if errA != nil {
			return nil, errA
		}
		if errB != nil {
			return nil, errB
		}
		if ka, isA := a.IsConst(); isA {
			return b.Clone().Scale(ka), nil
		}
		if kb, isB := b.IsConst(); isB {
			return a.Clone().Scale(kb), nil
		}
		return nil, t.errf(n, "nonlinear multiplication is not supported")
	case "str.len":
		if len(args) != 1 {
			return nil, t.errf(n, "str.len takes one argument")
		}
		x, err := t.strVarOf(args[0])
		if err != nil {
			return nil, err
		}
		return lia.V(t.script.Problem.LenVar(x)), nil
	case "str.to_int", "str.to.int":
		if len(args) != 1 {
			return nil, t.errf(n, "%s takes one argument", op)
		}
		x, err := t.strVarOf(args[0])
		if err != nil {
			return nil, err
		}
		nv := t.script.Problem.Lia.Fresh(t.freshName("ti"))
		t.aux = append(t.aux, &strcon.ToNum{N: nv, X: x})
		return lia.V(nv), nil
	case "ite":
		if len(args) != 3 {
			return nil, t.errf(n, "ite takes three arguments")
		}
		condP, err := t.boolTerm(args[0], true)
		if err != nil {
			return nil, err
		}
		condN, err := t.boolTerm(args[0], false)
		if err != nil {
			return nil, err
		}
		e1, err := t.intExpr(args[1])
		if err != nil {
			return nil, err
		}
		e2, err := t.intExpr(args[2])
		if err != nil {
			return nil, err
		}
		v := t.script.Problem.Lia.Fresh(t.freshName("ite"))
		t.aux = append(t.aux, &strcon.OrCon{Args: []strcon.Constraint{
			&strcon.AndCon{Args: []strcon.Constraint{condP, &strcon.Arith{F: lia.Eq(lia.V(v), e1)}}},
			&strcon.AndCon{Args: []strcon.Constraint{condN, &strcon.Arith{F: lia.Eq(lia.V(v), e2)}}},
		}})
		return lia.V(v), nil
	}
	return nil, t.errf(n, "unsupported integer operator %q", op)
}

// reTerm translates a regular-expression term to an automaton.
func (t *translator) reTerm(n *node) (*automata.NFA, error) {
	if n.list == nil {
		switch n.atom {
		case "re.allchar":
			return automata.Symbol(alphabet.AnyRange), nil
		case "re.all":
			return automata.AnyStar(), nil
		case "re.none", "re.nostr":
			return automata.Empty(), nil
		}
		return nil, t.errf(n, "unsupported regex atom %q", n.atom)
	}
	if len(n.list) == 0 {
		return nil, t.errf(n, "empty term")
	}
	if err := t.enter(n); err != nil {
		return nil, err
	}
	defer t.leave()
	op := n.list[0].atom
	args := n.list[1:]
	unary := func() (*automata.NFA, error) {
		if len(args) != 1 {
			return nil, t.errf(n, "%s takes one argument", op)
		}
		return t.reTerm(args[0])
	}
	switch op {
	case "str.to_re", "str.to.re":
		if len(args) != 1 || !args[0].str {
			return nil, t.errf(n, "str.to_re takes a string literal")
		}
		return automata.Word(alphabet.Encode(args[0].atom)), nil
	case "re.++", "re.concat":
		out := automata.Epsilon()
		for _, a := range args {
			r, err := t.reTerm(a)
			if err != nil {
				return nil, err
			}
			out = automata.Concat(out, r)
		}
		return out, nil
	case "re.union":
		out := automata.Empty()
		for _, a := range args {
			r, err := t.reTerm(a)
			if err != nil {
				return nil, err
			}
			out = automata.Union(out, r)
		}
		return out, nil
	case "re.inter":
		var out *automata.NFA
		for _, a := range args {
			r, err := t.reTerm(a)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = r
			} else {
				out = automata.Product(out, r)
			}
		}
		if out == nil {
			return automata.AnyStar(), nil
		}
		return out, nil
	case "re.*", "re.star":
		r, err := unary()
		if err != nil {
			return nil, err
		}
		return automata.Star(r), nil
	case "re.+", "re.plus":
		r, err := unary()
		if err != nil {
			return nil, err
		}
		return automata.Plus(r), nil
	case "re.opt":
		r, err := unary()
		if err != nil {
			return nil, err
		}
		return automata.Optional(r), nil
	case "re.comp":
		r, err := unary()
		if err != nil {
			return nil, err
		}
		return r.Complement(), nil
	case "re.range":
		if len(args) != 2 || !args[0].str || !args[1].str ||
			len(args[0].atom) != 1 || len(args[1].atom) != 1 {
			return nil, t.errf(n, "re.range takes two single-character literals")
		}
		lo, hi := args[0].atom[0], args[1].atom[0]
		out := automata.Empty()
		for _, r := range alphabet.CodeRanges(lo, hi) {
			out = automata.Union(out, automata.Symbol(r))
		}
		return out, nil
	case "re.loop":
		// (re.loop r lo hi) legacy form.
		if len(args) == 3 {
			r, err := t.reTerm(args[0])
			if err != nil {
				return nil, err
			}
			lo, err1 := strconv.Atoi(args[1].atom)
			hi, err2 := strconv.Atoi(args[2].atom)
			if err1 != nil || err2 != nil {
				return nil, t.errf(n, "re.loop bounds must be integers")
			}
			// Repeat unrolls the automaton hi times; cap the bounds so
			// adversarial inputs cannot demand gigantic unrollings.
			const maxLoopBound = 512
			if lo < 0 || hi < lo || hi > maxLoopBound {
				return nil, t.errf(n, "re.loop bounds out of range (0 <= lo <= hi <= %d)", maxLoopBound)
			}
			return automata.Repeat(r, lo, hi), nil
		}
		return nil, t.errf(n, "unsupported re.loop arity")
	}
	if op == "_" || strings.HasPrefix(op, "(_") {
		return nil, t.errf(n, "indexed regex operators are not supported")
	}
	return nil, t.errf(n, "unsupported regex operator %q", op)
}
