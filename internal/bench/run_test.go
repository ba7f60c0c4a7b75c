package bench

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/strcon"
)

// funcBackend is a test-only backend that runs its function on the
// solve's context and answers UNKNOWN.
type funcBackend func(ec *engine.Ctx)

func (funcBackend) Name() string       { return "func" }
func (funcBackend) Caps() backend.Caps { return backend.Caps{} }
func (f funcBackend) Solve(_ *strcon.Problem, _ backend.Options, ec *engine.Ctx) core.Result {
	f(ec)
	return core.Result{Status: core.StatusUnknown, Backend: "func", Stats: ec.Stats()}
}

// TestTimeoutClassification pins the TIMEOUT/UNKNOWN split: an instance
// is a TIMEOUT only when its context actually expired, never merely
// because the solver gave up. The statistics means cover the finished
// runs only, since a timed-out run's counters depend on machine load.
func TestTimeoutClassification(t *testing.T) {
	insts := Table1Suites(2)[0].Instances
	n := int64(len(insts))

	giveUp := funcBackend(func(ec *engine.Ctx) {
		ec.Stats().Add("rounds", 4)
	})
	r := RunSuite(insts, giveUp, time.Minute, 1)
	if c := r.Counts; c.Timeout != 0 || c.Unknown != len(insts) {
		t.Fatalf("instant unknowns classified as %+v, want all UNKNOWN", c)
	}
	if r.Agg.Instances != n || r.Agg.Rounds != 4*n {
		t.Fatalf("finished runs aggregated as %+v, want %d instances of 4 rounds", r.Agg, n)
	}

	spin := funcBackend(func(ec *engine.Ctx) {
		ec.Stats().Add("rounds", 4)
		for !ec.Poll() {
		}
	})
	r = RunSuite(insts, spin, 30*time.Millisecond, 1)
	if c := r.Counts; c.Unknown != 0 || c.Timeout != len(insts) {
		t.Fatalf("deadline-bound unknowns classified as %+v, want all TIMEOUT", c)
	}
	if r.Agg != (Agg{}) {
		t.Fatalf("timed-out runs aggregated as %+v, want none", r.Agg)
	}
}

// TestTableParallelByteIdentical is the -j acceptance check: rendering
// the tables with a worker pool must produce byte-identical output to
// the sequential run, for any worker count. The portfolio row is
// excluded here: its verdicts are deterministic (see the portfolio
// differential tests) but its aggregate conflict/pivot counters depend
// on which racing backend gets cancelled first, which is timing.
func TestTableParallelByteIdentical(t *testing.T) {
	suites := []Suite{Table1Suites(3)[1], Table2Suites(3)[0]}
	solvers := Solvers()[:3]
	timeout := 20 * time.Second

	var seq bytes.Buffer
	Table(&seq, suites, solvers, timeout, 1)
	for _, workers := range []int{2, 4} {
		var par bytes.Buffer
		Table(&par, suites, solvers, timeout, workers)
		if par.String() != seq.String() {
			t.Fatalf("workers=%d output differs from sequential:\n%s\nvs\n%s",
				workers, par.String(), seq.String())
		}
	}
}
