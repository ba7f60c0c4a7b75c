package portfolio

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/lia"
	"repro/internal/strcon"
)

// convProblem builds n = toNum(x), n = 42, len(x) = 4 — the
// quickstart instance, with a conversion-heavy feature vector.
func convProblem() *strcon.Problem {
	p := strcon.NewProblem()
	x := p.NewStrVar("x")
	n := p.NewIntVar("n")
	p.Add(&strcon.ToNum{X: x, N: n})
	p.Add(&strcon.Arith{F: lia.EqConst(n, 42)})
	p.Add(&strcon.Arith{F: lia.EqConst(p.LenVar(x), 4)})
	return p
}

func TestExtractFeatures(t *testing.T) {
	p := convProblem()
	p.Prepare()
	f := Extract(p)
	if f.Conversions != 1 {
		t.Fatalf("Conversions = %d, want 1", f.Conversions)
	}
	if f.LengthCons != 2 {
		t.Fatalf("LengthCons = %d, want 2", f.LengthCons)
	}
	if f.StrVars != 1 {
		t.Fatalf("StrVars = %d, want 1", f.StrVars)
	}
	if f.Constraints != 3 {
		t.Fatalf("Constraints = %d, want 3", f.Constraints)
	}
	b := f.Bucket()
	if b != "conv1 re0 len1 eq0 sz0 loop2" {
		t.Fatalf("Bucket = %q", b)
	}
	if b != Extract(p).Bucket() {
		t.Fatal("Bucket not deterministic")
	}
}

// TestScheduleDeterministicAndAnchored pins the scheduler: identical
// features and history produce an identical selection, in registry
// order, and the fully-capable anchor backend survives any history
// bias against it.
func TestScheduleDeterministicAndAnchored(t *testing.T) {
	s := New(Config{})
	p := convProblem()
	p.Prepare()
	f := Extract(p)
	first := names(s.schedule(f, f.Bucket()))
	if !reflect.DeepEqual(first, names(s.schedule(f, f.Bucket()))) {
		t.Fatalf("schedule not deterministic: %v", first)
	}
	anchored := false
	for _, n := range first {
		if n == "refine" {
			anchored = true
		}
	}
	if !anchored {
		t.Fatalf("selection %v lacks the anchor backend", first)
	}

	// Poison the history: enum, split and overapprox-only win
	// overwhelmingly in this bucket. The bias must reorder the race,
	// yet the anchor stays in.
	bucket := f.Bucket()
	s.hist[bucket] = map[string]*record{
		"enum":            {picks: 100, wins: 100},
		"split":           {picks: 100, wins: 100},
		"overapprox-only": {picks: 100, wins: 100},
		"refine":          {picks: 100, losses: 100},
	}
	biased := names(s.schedule(f, bucket))
	anchored = false
	for _, n := range biased {
		if n == "refine" {
			anchored = true
		}
	}
	if !anchored {
		t.Fatalf("biased selection %v dropped the anchor backend", biased)
	}
}

func names(bs []backend.Backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name()
	}
	return out
}

// fiveDigitProblem builds n = toNum(x), n = 12345, len(x) = 5: only
// refine settles it, since enum's default domain stops at length 4,
// overapprox-only never proves SAT and split gives up on conversions.
func fiveDigitProblem() *strcon.Problem {
	p := strcon.NewProblem()
	x := p.NewStrVar("x")
	n := p.NewIntVar("n")
	p.Add(&strcon.ToNum{X: x, N: n})
	p.Add(&strcon.Arith{F: lia.EqConst(n, 12345)})
	p.Add(&strcon.Arith{F: lia.EqConst(p.LenVar(x), 5)})
	return p
}

// TestSolveRecordsHistoryAndStats solves one instance and checks the
// full bookkeeping chain: win and its duration recorded in the bucket
// history, stats tree counters under portfolio/<bucket>, and a
// Snapshot exposing the win rate and the decision. A second solve on
// the same Solver then starts the anchor alone: it has won the bucket
// and the others have not, so they wait out its solo slice, which the
// anchor's verdict ends first. Only started attempts are booked.
func TestSolveRecordsHistoryAndStats(t *testing.T) {
	s := New(Config{})
	ec := engine.WithTimeout(10 * time.Second)
	res := s.Solve(fiveDigitProblem(), backend.Options{}, ec)
	if res.Status != core.StatusSat {
		t.Fatalf("solve = %v (%s), want sat", res.Status, res.Reason)
	}
	if res.Backend != "refine" {
		t.Fatalf("winner backend = %q, want refine, the only engine that settles it", res.Backend)
	}
	if res.Model == nil || !fiveDigitProblem().Eval(res.Model) {
		t.Fatal("winner model missing or invalid on the original problem")
	}

	snap := s.Snapshot()
	if snap.Races != 1 {
		t.Fatalf("Races = %d, want 1", snap.Races)
	}
	agg, ok := snap.Backends[res.Backend]
	if !ok || agg.Wins != 1 || agg.WinRate != 1 {
		t.Fatalf("winner counters = %+v (present %v)", agg, ok)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Winner != res.Backend || len(snap.Recent[0].Picked) != 3 {
		t.Fatalf("Recent = %+v, want three picks won by %s", snap.Recent, res.Backend)
	}
	bucket := snap.Recent[0].Bucket
	if _, ok := snap.Buckets[bucket][res.Backend]; !ok {
		t.Fatalf("bucket %q missing winner entry: %+v", bucket, snap.Buckets)
	}
	if got := ec.Stats().Total("races"); got != 1 {
		t.Fatalf("stats races = %d, want 1", got)
	}
	if got := ec.Stats().Total(res.Backend + ".win"); got != 1 {
		t.Fatalf("stats tree win counter = %d, want 1", got)
	}
	r := s.hist[bucket]["refine"]
	if r.longestWin <= 0 {
		t.Fatalf("refine's win recorded no duration: %+v", r)
	}

	// Lengthen the recorded win, so that the second solve's own timing
	// cannot outrun the solo slice.
	r.longestWin = time.Hour
	ec = engine.WithTimeout(10 * time.Second)
	res = s.Solve(fiveDigitProblem(), backend.Options{}, ec)
	if res.Status != core.StatusSat || res.Backend != "refine" {
		t.Fatalf("second solve = %v by %q, want sat by refine", res.Status, res.Backend)
	}
	for _, name := range backend.Names() {
		want := int64(0)
		if name == "refine" {
			want = 1
		}
		if got := ec.Stats().Total("pick." + name); got != want {
			t.Errorf("second solve pick.%s = %d, want %d", name, got, want)
		}
	}
	again := s.Snapshot()
	for name, c := range snap.Backends {
		want := c.Picks
		if name == "refine" {
			want++
		}
		if got := again.Backends[name].Picks; got != want {
			t.Errorf("%s picks %d -> %d, want %d", name, c.Picks, got, want)
		}
	}
	if d := again.Recent[1]; !reflect.DeepEqual(d.Picked, []string{"refine"}) || d.Winner != "refine" {
		t.Errorf("second decision = %+v, want refine alone", d)
	}
}

// fake is a test backend whose Solve the test supplies.
type fake struct {
	name  string
	caps  backend.Caps
	solve func(prob *strcon.Problem, ec *engine.Ctx) core.Result
}

func (f *fake) Name() string       { return f.name }
func (f *fake) Caps() backend.Caps { return f.caps }
func (f *fake) Solve(prob *strcon.Problem, _ backend.Options, ec *engine.Ctx) core.Result {
	res := f.solve(prob, ec)
	res.Backend = f.name
	return res
}

// anchorCaps make a fake the pool's anchor when it comes first.
var anchorCaps = backend.Caps{ProvesSat: true, ProvesUnsat: true, Conversion: true, Regex: true, CostHint: 3}

// settler solves with the registry's refine engine; it proves SAT only,
// so it is never the anchor.
func settler(name string) *fake {
	refine, _ := backend.Get("refine")
	return &fake{name: name, caps: backend.Caps{ProvesSat: true, Conversion: true, Regex: true, CostHint: 1},
		solve: func(prob *strcon.Problem, ec *engine.Ctx) core.Result {
			return refine.Solve(prob, backend.Options{}, ec)
		}}
}

// blocker runs until its context stops and reports each stop's cause
// on causes (buffered, so the fake never blocks on the test).
func blocker(name string, caps backend.Caps, causes chan<- engine.Cause) *fake {
	return &fake{name: name, caps: caps, solve: func(_ *strcon.Problem, ec *engine.Ctx) core.Result {
		for !ec.Expired() {
			time.Sleep(time.Millisecond)
		}
		causes <- ec.Cause()
		return core.Result{Status: core.StatusUnknown, Reason: "cancelled"}
	}}
}

// withHistory builds a portfolio over pool whose history in
// convProblem's bucket is hist.
func withHistory(pool []backend.Backend, hist map[string]*record) (*Solver, string) {
	s := New(Config{Backends: pool})
	p := convProblem()
	p.Prepare()
	bucket := Extract(p).Bucket()
	s.hist[bucket] = hist
	return s, bucket
}

// TestStagedRaceWidensWhenLeadGivesUp: an anchor that returns without
// a verdict ends the solo slice however long it is.
func TestStagedRaceWidensWhenLeadGivesUp(t *testing.T) {
	giveUp := &fake{name: "anchor", caps: anchorCaps,
		solve: func(*strcon.Problem, *engine.Ctx) core.Result {
			return core.Result{Status: core.StatusUnknown, Reason: "gave up"}
		}}
	s, bucket := withHistory([]backend.Backend{giveUp, settler("settler")},
		map[string]*record{"anchor": {picks: 1, wins: 1, longestWin: time.Hour}})
	res := s.Solve(convProblem(), backend.Options{}, engine.WithTimeout(10*time.Second))
	if res.Status != core.StatusSat || res.Backend != "settler" {
		t.Fatalf("solve = %v by %q (%s), want sat by settler", res.Status, res.Backend, res.Reason)
	}
	got := s.Snapshot().Buckets[bucket]
	if got["anchor"].Picks != 2 || got["anchor"].Losses != 1 || got["settler"].Picks != 1 || got["settler"].Wins != 1 {
		t.Fatalf("bucket counts = %+v", got)
	}
}

// TestStagedRaceWidensAfterSoloSlice: an anchor still running after its
// longest win lets the deferred backends in; the first of them to
// settle cancels the anchor, and nothing is left running.
func TestStagedRaceWidensAfterSoloSlice(t *testing.T) {
	before := fault.Snapshot()
	causes := make(chan engine.Cause, 1)
	s, bucket := withHistory([]backend.Backend{blocker("anchor", anchorCaps, causes), settler("settler")},
		map[string]*record{"anchor": {picks: 1, wins: 1, longestWin: 10 * time.Millisecond}})
	res := s.Solve(convProblem(), backend.Options{}, engine.WithTimeout(10*time.Second))
	if res.Status != core.StatusSat || res.Backend != "settler" {
		t.Fatalf("solve = %v by %q (%s), want sat by settler", res.Status, res.Backend, res.Reason)
	}
	if c := <-causes; c != engine.CauseCancelled {
		t.Fatalf("anchor stopped with cause %v, want cancelled by the winner", c)
	}
	got := s.Snapshot().Buckets[bucket]
	if got["anchor"].Losses != 1 || got["settler"].Wins != 1 {
		t.Fatalf("bucket counts = %+v", got)
	}
	fault.CheckLeaks(t, before)
}

// TestStagedRaceLeadsWithWinners: a backend that has won in the bucket
// starts together with the anchor, and one that has not waits out the
// solo slice, here for good, since the winner's verdict ends the race.
func TestStagedRaceLeadsWithWinners(t *testing.T) {
	causes := make(chan engine.Cause, 2)
	idler := blocker("idler", backend.Caps{ProvesSat: true, Conversion: true, Regex: true, CostHint: 1}, causes)
	s, bucket := withHistory([]backend.Backend{blocker("anchor", anchorCaps, causes), settler("settler"), idler},
		map[string]*record{
			"anchor":  {picks: 2, wins: 1, losses: 1, longestWin: time.Hour},
			"settler": {picks: 1, wins: 1, longestWin: time.Millisecond},
		})
	res := s.Solve(convProblem(), backend.Options{}, engine.WithTimeout(10*time.Second))
	if res.Status != core.StatusSat || res.Backend != "settler" {
		t.Fatalf("solve = %v by %q (%s), want sat by settler", res.Status, res.Backend, res.Reason)
	}
	got := s.Snapshot().Buckets[bucket]
	if got["settler"].Wins != 2 || got["anchor"].Losses != 2 {
		t.Fatalf("bucket counts = %+v", got)
	}
	if _, ok := got["idler"]; ok {
		t.Fatalf("idler was booked though it never started: %+v", got["idler"])
	}
	if len(causes) != 1 {
		t.Fatalf("%d blockers ran, want the anchor alone", len(causes))
	}
}

// TestConcurrentStagedRaces: trauserve's workers share one Solver, so
// races in two buckets read and write one history at once. Every
// verdict must hold, every race be booked, and no goroutine outlive
// its solve.
func TestConcurrentStagedRaces(t *testing.T) {
	before := fault.Snapshot()
	s := New(Config{})
	problems := []func() *strcon.Problem{convProblem, wordProblem}
	const workers, rounds = 8, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				build := problems[(w+r)%len(problems)]
				res := s.Solve(build(), backend.Options{}, engine.WithTimeout(10*time.Second))
				if res.Status != core.StatusSat || res.Model == nil || !build().Eval(res.Model) {
					t.Errorf("worker %d round %d: %v (%s), model valid: %v", w, r, res.Status, res.Reason,
						res.Model != nil && build().Eval(res.Model))
				}
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Races != workers*rounds || len(snap.Buckets) != len(problems) {
		t.Fatalf("Races = %d over %d buckets, want %d over %d", snap.Races, len(snap.Buckets), workers*rounds, len(problems))
	}
	var wins int64
	for _, c := range snap.Backends {
		wins += c.Wins
		if c.Wins+c.Losses+c.Timeouts != c.Picks {
			t.Errorf("counts do not add up to picks: %+v", c)
		}
	}
	if wins != workers*rounds {
		t.Errorf("wins = %d, want one per race (%d)", wins, workers*rounds)
	}
	fault.CheckLeaks(t, before)
}

// wordProblem builds x ++ "b" = "ab", a word-equation bucket.
func wordProblem() *strcon.Problem {
	p := strcon.NewProblem()
	x := p.NewStrVar("x")
	p.Add(&strcon.WordEq{
		L: strcon.Term{{IsVar: true, V: x}, {Const: "b"}},
		R: strcon.Term{{Const: "ab"}},
	})
	return p
}

// TestCapsUnion checks the portfolio's capability report is the union
// of its pool.
func TestCapsUnion(t *testing.T) {
	c := New(Config{}).Caps()
	if !c.ProvesSat || !c.ProvesUnsat || !c.Conversion || !c.Regex {
		t.Fatalf("Caps() = %+v, want the full union", c)
	}
	only, err := backend.Select("overapprox-only")
	if err != nil {
		t.Fatal(err)
	}
	c = New(Config{Backends: only}).Caps()
	if c.ProvesSat {
		t.Fatalf("refutation-only pool reports ProvesSat: %+v", c)
	}
}

// TestBackendsSubsetRespected pins -backends: with a restricted pool
// the race never consults engines outside it.
func TestBackendsSubsetRespected(t *testing.T) {
	pool, err := backend.Select("refine,enum")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Backends: pool})
	res := s.Solve(convProblem(), backend.Options{}, engine.WithTimeout(10*time.Second))
	if res.Status != core.StatusSat {
		t.Fatalf("solve = %v, want sat", res.Status)
	}
	for name := range s.Snapshot().Backends {
		if name != "refine" && name != "enum" {
			t.Fatalf("backend %q raced outside the configured pool", name)
		}
	}
}
