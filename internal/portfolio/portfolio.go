package portfolio

import (
	"sort"
	"sync"
	"time"

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
	// longestWin is the longest a winning attempt ran. The anchor's is
	// its solo slice in the bucket (see stage).
	longestWin time.Duration
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
	lead, solo := s.stage(bucket, sel)
	stop()
	st.Add("races", 1)

	winner, tries := race(prob, opts, sel, lead, solo, ec)

	out := core.Result{Status: core.StatusUnknown, Backend: "portfolio", Stats: ec.Stats()}
	if winner >= 0 {
		out = tries[winner].res
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
			for _, t := range tries {
				if r := t.res.Reason; r != "" && r != "rounds exhausted" {
					out.Reason = r
					break
				}
			}
		}
	}

	s.recordOutcomes(st, bucket, sel, winner, tries, ec)
	return out
}

// stage splits a scheduled race in two. The lead starts at once: the
// anchor and every selected backend that has won in this bucket. The
// rest are deferred for solo, the anchor's longest win in the bucket:
// until the anchor has run that long it is still inside the time in
// which it has always settled such instances, and an engine that has
// never won here would only take its core. A bucket the anchor has
// never won has solo 0, and the whole selection leads.
func (s *Solver) stage(bucket string, sel []backend.Backend) (lead []bool, solo time.Duration) {
	a := s.anchor()
	s.mu.Lock()
	defer s.mu.Unlock()
	hb := s.hist[bucket]
	if a >= 0 {
		if r := hb[s.backends[a].Name()]; r != nil {
			solo = r.longestWin
		}
	}
	lead = make([]bool, len(sel))
	for i, b := range sel {
		// A solo slice means the anchor has won here, so it leads too.
		r := hb[b.Name()]
		lead[i] = solo == 0 || r != nil && r.wins > 0
	}
	return lead, solo
}

// attempt is one raced backend: its context (nil until it starts), its
// result and how long it ran.
type attempt struct {
	ec   *engine.Ctx
	res  core.Result
	took time.Duration
}

// race runs the selected backends in two stages. The lead (lead[i])
// starts at once. The deferred rest start when solo has passed or when
// every lead attempt has returned without a verdict, and never once an
// attempt has settled. Each started attempt runs on its own goroutine
// under its own child context with an equal slice of the resource
// budget left at race start (a backend exhausting its slice stops only
// itself — see engine.Ctx.SetBudget); its context, slice and problem
// clone are made when it starts. The first settled SAT/UNSAT cancels
// every other started attempt; after all goroutines join, the winner
// is the lowest-indexed settled result, so simultaneous finishes
// tie-break positionally (selection order follows registry order).
// Returns -1 when nobody settled.
func race(prob *strcon.Problem, opts backend.Options, sel []backend.Backend,
	lead []bool, solo time.Duration, ec *engine.Ctx) (int, []attempt) {
	n := len(sel)
	tries := make([]attempt, n)
	var slice int64
	if rem, ok := ec.BudgetRemaining(); ok && rem > 0 {
		slice = max(rem/int64(n), 1)
	}
	var (
		mu   sync.Mutex // guards over and every tries[i].ec
		over bool       // an attempt settled: start no more
		wg   sync.WaitGroup
	)
	// Each started attempt sends once, so n slots never block a sender,
	// even after the wait below has stopped receiving.
	done := make(chan struct{}, n)
	start := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		if over {
			return
		}
		c := ec.Child("try." + sel[i].Name())
		if slice > 0 {
			// Install before the backend creates children: the slice
			// meter is inherited at Child time.
			c.SetBudget(slice)
		}
		// A private clone per backend: its own arithmetic pool and
		// variable tables, so concurrent solves never share mutable
		// state. Variable numbering is shared, so models transfer back.
		p := prob.WithConstraints(prob.Constraints)
		tries[i].ec = c
		wg.Add(1)
		go func() {
			// Panic boundary: a goroutine panic would bypass the
			// recover in Solve and kill the process. A crashed backend
			// counts as UNKNOWN — it degrades only itself, never the
			// race's verdict.
			defer wg.Done()
			began := time.Now()
			if d := fault.Contain("portfolio.race", func() {
				tries[i].res = sel[i].Solve(p, opts, c)
			}); d != nil {
				c.Stats().Add("fault.contained", 1)
				tries[i].res = core.Result{Status: core.StatusUnknown,
					Reason: "panic: " + d.Value, Fault: d,
					Backend: sel[i].Name(), Stats: c.Stats()}
			}
			tries[i].took = time.Since(began)
			if settled(tries[i].res.Status) {
				mu.Lock()
				over = true
				for j := range tries {
					if j != i {
						tries[j].ec.Cancel()
					}
				}
				mu.Unlock()
			}
			done <- struct{}{}
		}()
	}

	leads := 0
	for i := range sel {
		if lead[i] {
			start(i)
			leads++
		}
	}
	// The solo slice: wait for it to pass or for every lead attempt to
	// return, then start the deferred rest. After a verdict, start does
	// nothing.
	timer := time.NewTimer(solo)
wait:
	for k := 0; k < leads; k++ {
		select {
		case <-done:
		case <-timer.C:
			break wait
		}
	}
	timer.Stop()
	for i := range sel {
		if !lead[i] {
			start(i)
		}
	}
	wg.Wait()
	for i := range tries {
		if settled(tries[i].res.Status) {
			return i, tries
		}
	}
	return -1, tries
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
// history (the scheduling bias) and into the solve's engine stats tree:
// a pick.<backend> counter under portfolio and win/loss/timeout counts
// under portfolio/<bucket>, so /stats and -stats expose them per
// feature bucket. Only started attempts are booked: a deferred backend
// that never ran earns no pick and no loss.
func (s *Solver) recordOutcomes(st *engine.Stats, bucket string, sel []backend.Backend,
	winner int, tries []attempt, ec *engine.Ctx) {
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
		if tries[i].ec == nil {
			continue
		}
		name := b.Name()
		r := hb[name]
		if r == nil {
			r = &record{}
			hb[name] = r
		}
		r.picks++
		st.Add("pick."+name, 1)
		d.Picked = append(d.Picked, name)
		switch {
		case i == winner:
			r.wins++
			r.longestWin = max(r.longestWin, tries[i].took)
			bst.Add(name+".win", 1)
			d.Winner = name
		case timedOut(tries[i].res, ec):
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
