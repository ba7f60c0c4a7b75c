// Package backend turns the repository's solving engines into
// interchangeable decision procedures behind one interface and one
// registry. The refinement loop, the over-approximation-only refuter,
// and the two baseline families (bounded enumeration, word-equation
// splitting) all implement Backend; benchtab, the differential suites,
// the portfolio scheduler, and trauserve resolve engines from here
// instead of building ad-hoc closures.
package backend

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/strcon"
)

// Options configure one Solve call, engine-independently. No option is
// left: every backend runs with its engine's defaults. The type stays
// because callers, the benchmark harness among them, pass Options{}.
type Options struct{}

// Caps is a backend's static capability report: what verdicts it can
// prove and which constraint features it handles. The portfolio
// scheduler reads it to keep incapable engines out of a race and to
// order candidates before any win history exists.
type Caps struct {
	// ProvesSat: the engine can return a validated SAT model.
	ProvesSat bool
	// ProvesUnsat: the engine can soundly refute.
	ProvesUnsat bool
	// Conversion: str.to_int / str.from_int constraints are decided,
	// not ignored or rejected.
	Conversion bool
	// Regex: membership constraints are decided.
	Regex bool
	// CostHint ranks expected cost per solve, 1 (cheap probe) to 3
	// (the full refinement loop); used only to break scheduling ties.
	CostHint int
}

// Backend is one decision procedure. Solve must honor the context's
// deadline/cancellation, record statistics on its stats tree (its wall
// time under time.total), and set Result.Backend to Name().
type Backend interface {
	Name() string
	Caps() Caps
	Solve(prob *strcon.Problem, opts Options, ec *engine.Ctx) core.Result
}

// coreBackend adapts core.SolveCtx, either the full procedure or its
// over-approximation phase alone.
type coreBackend struct {
	name     string
	caps     Caps
	overOnly bool
}

func (b *coreBackend) Name() string { return b.name }
func (b *coreBackend) Caps() Caps   { return b.caps }

func (b *coreBackend) Solve(prob *strcon.Problem, opts Options, ec *engine.Ctx) core.Result {
	res := core.SolveCtx(prob, core.Options{OverApproxOnly: b.overOnly}, ec)
	res.Backend = b.name
	return res
}

// enumBackend adapts the bounded-length enumeration baseline.
type enumBackend struct{}

func (enumBackend) Name() string { return "enum" }
func (enumBackend) Caps() Caps {
	// Enumeration validates candidates with the concrete evaluator, so
	// every constraint kind is decided on the bounded domain — but
	// exhausting the domain proves nothing, hence no UNSAT.
	return Caps{ProvesSat: true, Conversion: true, Regex: true, CostHint: 2}
}

func (enumBackend) Solve(prob *strcon.Problem, opts Options, ec *engine.Ctx) core.Result {
	defer ec.Stats().Time("time.total")()
	r := baseline.SolveEnum(prob, baseline.EnumOptions{}, ec)
	return fromBaseline("enum", r, ec)
}

// splitBackend adapts the word-equation splitting baseline.
type splitBackend struct{}

func (splitBackend) Name() string { return "split" }
func (splitBackend) Caps() Caps {
	// Nielsen-style splitting is sound and complete only on the pure
	// word-equation fragment; conversion and membership constraints
	// make it give up with UNKNOWN.
	return Caps{ProvesSat: true, ProvesUnsat: true, CostHint: 2}
}

func (splitBackend) Solve(prob *strcon.Problem, opts Options, ec *engine.Ctx) core.Result {
	defer ec.Stats().Time("time.total")()
	r := baseline.SolveSplit(prob, baseline.SplitOptions{}, ec)
	return fromBaseline("split", r, ec)
}

// fromBaseline lifts a baseline result into a core.Result with the
// backend name, the context's stats tree, and an UNKNOWN reason from
// the shared taxonomy.
func fromBaseline(name string, r baseline.Result, ec *engine.Ctx) core.Result {
	out := core.Result{Status: r.Status, Model: r.Model, Backend: name, Stats: ec.Stats()}
	if out.Status == core.StatusUnknown {
		out.Reason = core.UnknownReason(ec)
	}
	return out
}

// registry is the fixed, ordered set of engines. Order matters: the
// portfolio's deterministic tie-break prefers lower-indexed backends,
// and Names/Select report this order.
var registry = []Backend{
	&coreBackend{
		name: "refine",
		caps: Caps{ProvesSat: true, ProvesUnsat: true, Conversion: true, Regex: true, CostHint: 3},
	},
	&coreBackend{
		name:     "overapprox-only",
		caps:     Caps{ProvesUnsat: true, Conversion: true, Regex: true, CostHint: 1},
		overOnly: true,
	},
	enumBackend{},
	splitBackend{},
}

// All returns every registered backend in registry order. The slice is
// fresh; the backends themselves are stateless shared values.
func All() []Backend {
	out := make([]Backend, len(registry))
	copy(out, registry)
	return out
}

// Names lists the registry in order.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Name()
	}
	return out
}

// Get resolves one backend by name.
func Get(name string) (Backend, bool) {
	for _, b := range registry {
		if b.Name() == name {
			return b, true
		}
	}
	return nil, false
}

// Select resolves a comma-separated name list in registry order,
// ignoring the order names appear in the list (so the portfolio's
// positional tie-break cannot be reshuffled by flag spelling). An
// empty list selects everything.
func Select(csv string) ([]Backend, error) {
	if strings.TrimSpace(csv) == "" {
		return All(), nil
	}
	want := map[string]bool{}
	for _, f := range strings.Split(csv, ",") {
		name := strings.TrimSpace(f)
		if name == "" {
			continue
		}
		if _, ok := Get(name); !ok {
			return nil, fmt.Errorf("unknown backend %q (have %s)", name, strings.Join(Names(), ", "))
		}
		want[name] = true
	}
	var out []Backend
	for _, b := range registry {
		if want[b.Name()] {
			out = append(out, b)
		}
	}
	return out, nil
}
