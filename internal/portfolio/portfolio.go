package portfolio

import (
	"sort"
	"sync"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/strcon"
)

// Config configures a portfolio solver.
type Config struct {
	// Backends is the candidate pool, in registry order (nil means the
	// whole registry).
	Backends []backend.Backend
}

// maxRace bounds how many backends race per solve.
const maxRace = 3

// record is the per-bucket, per-backend outcome history.
type record struct {
	picks, wins, losses, timeouts int64
}

// Solver is a stateful portfolio: the outcome history it accumulates
// across solves biases future scheduling. It implements
// backend.Backend and is safe for concurrent use.
type Solver struct {
	backends []backend.Backend

	mu     sync.Mutex
	races  int64
	hist   map[string]map[string]*record // bucket -> backend -> outcomes
	recent []Decision
}

// New builds a portfolio solver over the configured backend pool.
func New(cfg Config) *Solver {
	bs := cfg.Backends
	if len(bs) == 0 {
		bs = backend.All()
	}
	return &Solver{backends: bs, hist: map[string]map[string]*record{}}
}

// Name implements backend.Backend.
func (s *Solver) Name() string { return "portfolio" }

// Caps reports the union of the pool's capabilities.
func (s *Solver) Caps() backend.Caps {
	var u backend.Caps
	for _, b := range s.backends {
		c := b.Caps()
		u.ProvesSat = u.ProvesSat || c.ProvesSat
		u.ProvesUnsat = u.ProvesUnsat || c.ProvesUnsat
		u.Conversion = u.Conversion || c.Conversion
		u.Regex = u.Regex || c.Regex
		if c.CostHint > u.CostHint {
			u.CostHint = c.CostHint
		}
	}
	return u
}

// Solve races a scheduled subset of the pool on the problem.
//
// Solve is a panic boundary: a contract panic in the scheduler (or in
// a backend before its goroutine boundary takes over) degrades the
// solve to UNKNOWN with a Fault diagnostic.
func (s *Solver) Solve(prob *strcon.Problem, opts backend.Options, ec *engine.Ctx) core.Result {
	if ec == nil {
		ec = engine.Background()
	}
	var res core.Result
	if d := fault.Contain("portfolio.Solve", func() { res = s.solve(prob, opts, ec) }); d != nil {
		ec.Stats().Add("fault.contained", 1)
		res = core.Result{Status: core.StatusUnknown, Reason: "panic: " + d.Value,
			Fault: d, Backend: "portfolio", Stats: ec.Stats()}
	}
	return res
}

// settled reports a verdict that ends the race.
func settled(st core.Status) bool {
	return st == core.StatusSat || st == core.StatusUnsat
}

func (s *Solver) solve(prob *strcon.Problem, opts backend.Options, ec *engine.Ctx) core.Result {
	st := ec.Stats().Child("portfolio")
	stop := st.Time("time.schedule")
	// Prepare once on the caller's goroutine: resolving the membership
	// automata up front is what makes the constraint values safe to
	// share across the concurrently racing clones.
	prob.Prepare()
	f := Extract(prob)
	bucket := f.Bucket()
	sel := s.schedule(f, bucket)
	stop()
	st.Add("races", 1)
	for _, b := range sel {
		st.Add("pick."+b.Name(), 1)
	}

	winner, results := race(prob, opts, sel, ec)

	out := core.Result{Status: core.StatusUnknown, Backend: "portfolio", Stats: ec.Stats()}
	if winner >= 0 {
		out = results[winner]
		out.Stats = ec.Stats()
		if out.Model != nil && !prob.Eval(out.Model) {
			// A winner's model must hold on the original problem, not
			// just its racing clone. Degrade, never trust it.
			out = core.Result{Status: core.StatusUnknown, ValidationFailed: true,
				Reason: "validation failed", Backend: out.Backend, Stats: ec.Stats()}
			winner = -1
		}
	}
	if out.Status == core.StatusUnknown && out.Reason == "" {
		out.Reason = core.UnknownReason(ec)
		if out.Reason == "rounds exhausted" {
			// The race's own context never stopped (budget slices are
			// confined to the attempts); surface the first attempt's
			// specific reason — "budget: <site>", "deadline" — instead
			// of the generic fallback.
			for _, r := range results {
				if r.Reason != "" && r.Reason != "rounds exhausted" {
					out.Reason = r.Reason
					break
				}
			}
		}
	}

	s.recordOutcomes(st, bucket, sel, winner, results, ec)
	return out
}

// race runs the selected backends concurrently, each under its own
// child context with an equal slice of the remaining resource budget
// (a backend exhausting its slice stops only itself — see
// engine.Ctx.SetBudget). The first settled SAT/UNSAT cancels every
// other attempt; after all goroutines join, the winner is the
// lowest-indexed settled result, so simultaneous finishes tie-break
// positionally (selection order follows registry order). Returns -1
// when nobody settled.
func race(prob *strcon.Problem, opts backend.Options, sel []backend.Backend,
	ec *engine.Ctx) (int, []core.Result) {
	n := len(sel)
	attempts := make([]*engine.Ctx, n)
	probs := make([]*strcon.Problem, n)
	rem, hasBudget := ec.BudgetRemaining()
	for i, b := range sel {
		attempts[i] = ec.Child("try." + b.Name())
		if hasBudget && rem > 0 {
			slice := rem / int64(n)
			if slice < 1 {
				slice = 1
			}
			// Install before the backend creates children: the slice
			// meter is inherited at Child time.
			attempts[i].SetBudget(slice)
		}
		// A private clone per backend: its own arithmetic pool and
		// variable tables, so concurrent solves never share mutable
		// state. Variable numbering is shared, so models transfer back.
		probs[i] = prob.WithConstraints(prob.Constraints)
	}
	results := make([]core.Result, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range sel {
		wg.Add(1)
		go func(i int) {
			// Panic boundary: a goroutine panic would bypass the
			// recover in Solve and kill the process. A crashed backend
			// counts as UNKNOWN — it degrades only itself, never the
			// race's verdict.
			defer wg.Done()
			if d := fault.Contain("portfolio.race", func() {
				results[i] = sel[i].Solve(probs[i], opts, attempts[i])
			}); d != nil {
				attempts[i].Stats().Add("fault.contained", 1)
				results[i] = core.Result{Status: core.StatusUnknown,
					Reason: "panic: " + d.Value, Fault: d,
					Backend: sel[i].Name(), Stats: attempts[i].Stats()}
			}
			if settled(results[i].Status) {
				mu.Lock()
				for j := range attempts {
					if j != i {
						attempts[j].Cancel()
					}
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for i := range results {
		if settled(results[i].Status) {
			return i, results
		}
	}
	return -1, results
}

// schedule picks up to maxRace backends for this feature vector:
// capability fit and cost order the candidates, the bucket's win
// history biases the score, and a fully-capable anchor backend is
// always kept in the race so the biased selection can never drop the
// only engine able to settle the instance. The returned slice is in
// registry order (the race's positional tie-break).
func (s *Solver) schedule(f Features, bucket string) []backend.Backend {
	type cand struct {
		b     backend.Backend
		score int64
		pos   int
	}
	s.mu.Lock()
	hb := s.hist[bucket]
	cands := make([]cand, 0, len(s.backends))
	for pos, b := range s.backends {
		c := b.Caps()
		var sc int64
		if f.Conversions > 0 {
			if c.Conversion {
				sc += 40
			} else {
				sc -= 80
			}
		}
		if f.Memberships > 0 {
			if c.Regex {
				sc += 20
			} else {
				sc -= 80
			}
		}
		if c.ProvesSat && c.ProvesUnsat {
			sc += 20
		}
		sc -= int64(c.CostHint) * 5
		if r := hb[b.Name()]; r != nil {
			sc += 30*r.wins - 10*r.losses - 10*r.timeouts
		}
		cands = append(cands, cand{b: b, score: sc, pos: pos})
	}
	s.mu.Unlock()
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].pos < cands[j].pos
	})
	sel := cands[:min(maxRace, len(cands))]
	if a := s.anchor(); a >= 0 {
		present := false
		for _, c := range sel {
			if c.pos == a {
				present = true
				break
			}
		}
		if !present {
			sel[len(sel)-1] = cand{b: s.backends[a], pos: a}
		}
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].pos < sel[j].pos })
	out := make([]backend.Backend, len(sel))
	for i, c := range sel {
		out[i] = c.b
	}
	return out
}

// anchor returns the pool index of the first fully-capable backend
// (proves both verdicts, handles conversion and regex), or -1 when the
// configured pool has none.
func (s *Solver) anchor() int {
	for i, b := range s.backends {
		c := b.Caps()
		if c.ProvesSat && c.ProvesUnsat && c.Conversion && c.Regex {
			return i
		}
	}
	return -1
}

// recordOutcomes books the race's outcome both into the solver's own
// history (the scheduling bias) and into the solve's engine stats tree
// under portfolio/<bucket>, so /stats and -stats expose win/loss/
// timeout counts per feature bucket.
func (s *Solver) recordOutcomes(st *engine.Stats, bucket string, sel []backend.Backend,
	winner int, results []core.Result, ec *engine.Ctx) {
	bst := st.Child(bucket)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.races++
	hb := s.hist[bucket]
	if hb == nil {
		hb = map[string]*record{}
		s.hist[bucket] = hb
	}
	d := Decision{Bucket: bucket}
	for i, b := range sel {
		name := b.Name()
		r := hb[name]
		if r == nil {
			r = &record{}
			hb[name] = r
		}
		r.picks++
		d.Picked = append(d.Picked, name)
		switch {
		case i == winner:
			r.wins++
			bst.Add(name+".win", 1)
			d.Winner = name
		case timedOut(results[i], ec):
			r.timeouts++
			bst.Add(name+".timeout", 1)
		default:
			r.losses++
			bst.Add(name+".loss", 1)
		}
	}
	if len(s.recent) >= recentCap {
		s.recent = append(s.recent[:0], s.recent[1:]...)
	}
	s.recent = append(s.recent, d)
}

// timedOut classifies a losing attempt: the race's shared deadline
// expiring counts as a timeout, everything else (cancelled by the
// winner, budget slice, incomplete engine) as a plain loss.
func timedOut(r core.Result, ec *engine.Ctx) bool {
	return ec.TimedOut() && r.Status == core.StatusUnknown && r.Reason == "deadline"
}

// recentCap bounds the decision log exposed under /stats.
const recentCap = 32

// BackendCounts is one backend's aggregated outcome counters.
type BackendCounts struct {
	Picks    int64   `json:"picks"`
	Wins     int64   `json:"wins"`
	Losses   int64   `json:"losses"`
	Timeouts int64   `json:"timeouts"`
	WinRate  float64 `json:"win_rate"`
}

// Decision is one scheduling decision: which backends raced for a
// bucket and who settled it.
type Decision struct {
	Bucket string   `json:"bucket"`
	Picked []string `json:"picked"`
	Winner string   `json:"winner,omitempty"`
}

// Snapshot is the portfolio's observable state for /stats: total
// races, per-backend win rates (aggregate and per feature bucket), and
// the most recent scheduling decisions.
type Snapshot struct {
	Races    int64                               `json:"races"`
	Backends map[string]BackendCounts            `json:"backends"`
	Buckets  map[string]map[string]BackendCounts `json:"buckets"`
	Recent   []Decision                          `json:"recent,omitempty"`
}

// Snapshot returns a copy of the solver's cumulative outcome history.
func (s *Solver) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Snapshot{
		Races:    s.races,
		Backends: map[string]BackendCounts{},
		Buckets:  map[string]map[string]BackendCounts{},
	}
	for bucket, hb := range s.hist {
		bb := map[string]BackendCounts{}
		for name, r := range hb {
			c := BackendCounts{Picks: r.picks, Wins: r.wins, Losses: r.losses, Timeouts: r.timeouts}
			if r.picks > 0 {
				c.WinRate = float64(r.wins) / float64(r.picks)
			}
			bb[name] = c
			agg := out.Backends[name]
			agg.Picks += r.picks
			agg.Wins += r.wins
			agg.Losses += r.losses
			agg.Timeouts += r.timeouts
			out.Backends[name] = agg
		}
		out.Buckets[bucket] = bb
	}
	for name, agg := range out.Backends {
		if agg.Picks > 0 {
			agg.WinRate = float64(agg.Wins) / float64(agg.Picks)
			out.Backends[name] = agg
		}
	}
	out.Recent = append([]Decision(nil), s.recent...)
	return out
}
