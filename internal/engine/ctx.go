// Package engine provides the shared solve context threaded through
// every layer of the solver: a wall-clock deadline, a cooperative
// cancellation flag cheap enough to poll from the CDCL propagate loop
// and the simplex pivot loop, and a hierarchical statistics tree of
// counters and phase timers.
//
// A Ctx forms a tree: Child contexts observe the parent's cancellation
// and deadline, while cancelling a child leaves the parent (and the
// child's siblings) running. That asymmetry is what lets the portfolio
// race independent backends and cancel the losers. All Ctx and Stats methods are safe on a nil receiver (a nil
// Ctx never expires, a nil Stats records nothing) and safe for
// concurrent use.
package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Cause reports why a context stopped.
type Cause int32

// Stop causes.
const (
	// CauseNone: the context has not stopped.
	CauseNone Cause = iota
	// CauseCancelled: Cancel was called (directly or via an ancestor).
	CauseCancelled
	// CauseDeadline: the wall-clock deadline passed.
	CauseDeadline
	// CauseBudget: the resource governor's step budget ran out.
	CauseBudget
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseCancelled:
		return "cancelled"
	case CauseDeadline:
		return "deadline"
	case CauseBudget:
		return "budget"
	}
	return "?"
}

// pollStride is how many Poll calls share one wall-clock read: the
// cancellation flags are atomic loads checked on every call, but
// time.Now is only consulted once per stride.
const pollStride = 32

// meter is the resource governor shared by a whole Ctx tree: one
// atomic pool of budget units debited by Charge from every goroutine
// of the solve, plus the first site that tripped it (for the
// "budget: <site>" UNKNOWN reason).
type meter struct {
	remaining atomic.Int64
	site      atomic.Pointer[string]
}

func (m *meter) trip(site string) {
	m.site.CompareAndSwap(nil, &site)
}

// Pool is a named, shared budget pool: a tenant-level resource
// governor that any number of concurrent solves debit collectively.
// Where SetBudget bounds one solve, a Pool bounds a whole workload —
// trauserve attaches one pool per tenant, so a tenant's jobs drain a
// single budget no matter how many requests carry them. Attach with
// SetBudgetPool before creating children. All methods are safe on a
// nil receiver (a nil Pool is "no pool") and for concurrent use.
//
// A pool built with NewRefillingPool is a token bucket: units flow
// back at a fixed rate, capped at the original capacity, so a dry
// tenant recovers after a proportional wait instead of being rejected
// for the life of the process. The refill is lazy — credited on the
// admission-side Dry check — so a tenant with no new work costs
// nothing. Refill never un-stops a solve the dry pool already tripped
// (Charge observes the pool once, trips, and the solve settles
// UNKNOWN); it only re-opens admission for the tenant's NEXT request.
type Pool struct {
	name string
	m    meter

	// capacity caps what refill can restore; perSec is the refill rate
	// (0 = prepaid, never refills). lastRefill is the UnixNano stamp
	// of the last credited refill instant.
	capacity   int64
	perSec     int64
	lastRefill atomic.Int64
}

// NewPool returns a pool named name holding n units. n <= 0 returns
// nil: an unlimited tenant carries no pool at all.
func NewPool(name string, n int64) *Pool {
	if n <= 0 {
		return nil
	}
	p := &Pool{name: name, capacity: n}
	p.m.remaining.Store(n)
	return p
}

// NewRefillingPool returns a pool of capacity n that refills at perSec
// units per second (token bucket, capped at n). perSec <= 0 degrades
// to NewPool's prepaid semantics.
func NewRefillingPool(name string, n, perSec int64) *Pool {
	p := NewPool(name, n)
	if p == nil || perSec <= 0 {
		return p
	}
	p.perSec = perSec
	p.lastRefill.Store(time.Now().UnixNano())
	return p
}

// refill credits elapsed-time units into the bucket, capped at
// capacity. One goroutine wins the CAS for any given interval; losers
// retry against the advanced stamp and credit only what remains. The
// stamp advances by exactly the time the credited units represent, so
// fractional units are never lost to rounding.
func (p *Pool) refill() {
	if p == nil || p.perSec <= 0 {
		return
	}
	for {
		last := p.lastRefill.Load()
		now := time.Now().UnixNano()
		elapsed := now - last
		if elapsed <= 0 {
			return
		}
		credit := elapsed * p.perSec / int64(time.Second)
		if credit <= 0 {
			return
		}
		consumed := credit * int64(time.Second) / p.perSec
		if !p.lastRefill.CompareAndSwap(last, last+consumed) {
			continue
		}
		for {
			cur := p.m.remaining.Load()
			next := cur + credit
			if next > p.capacity {
				next = p.capacity
			}
			if next <= cur {
				return
			}
			if p.m.remaining.CompareAndSwap(cur, next) {
				if cur <= 0 && next > 0 {
					// The bucket recovered: clear the trip marker so
					// the next exhaustion blames its own site.
					p.m.site.Store(nil)
				}
				return
			}
		}
	}
}

// Name reports the pool's name ("" for nil).
func (p *Pool) Name() string {
	if p == nil {
		return ""
	}
	return p.name
}

// Remaining reports the units left in the pool (negative once dry),
// after crediting any pending refill.
func (p *Pool) Remaining() int64 {
	if p == nil {
		return 0
	}
	p.refill()
	return p.m.remaining.Load()
}

// Dry reports whether the pool is exhausted right now. Admission
// layers check it before accepting new work for the pool's tenant; on
// a refilling pool the answer flips back to false once the bucket has
// recovered above zero.
func (p *Pool) Dry() bool {
	if p == nil {
		return false
	}
	p.refill()
	return p.m.remaining.Load() <= 0
}

// Ctx is the cancellable solve context.
type Ctx struct {
	parent   *Ctx
	deadline time.Time // zero = none

	stopped atomic.Bool
	cause   atomic.Int32
	ticks   atomic.Uint64

	// gov, pool, and sched are installed on a root before the solve
	// starts (SetBudget/SetBudgetPool/SetSchedule) and shared by the
	// whole tree: Child copies the pointers, so children created
	// earlier do not see a later install.
	gov   *meter
	pool  *Pool
	sched *fault.Schedule

	stats *Stats
}

// Background returns a root context with no deadline.
func Background() *Ctx {
	return &Ctx{stats: NewStats()}
}

// WithTimeout returns a root context that expires d from now; d <= 0
// means no deadline.
func WithTimeout(d time.Duration) *Ctx {
	c := Background()
	if d > 0 {
		c.deadline = time.Now().Add(d)
	}
	return c
}

// WithDeadline returns a root context that expires at t (zero t means
// no deadline).
func WithDeadline(t time.Time) *Ctx {
	c := Background()
	c.deadline = t
	return c
}

// FromContext bridges a context.Context into an engine context: the
// returned Ctx inherits ctx's deadline, tightened by timeout when
// positive, and is cancelled when ctx's Done channel fires. The
// returned stop function releases the watcher goroutine; call it once
// the solve has returned.
func FromContext(ctx context.Context, timeout time.Duration) (*Ctx, func()) {
	var deadline time.Time
	if t, ok := ctx.Deadline(); ok {
		deadline = t
	}
	if timeout > 0 {
		if t := time.Now().Add(timeout); deadline.IsZero() || t.Before(deadline) {
			deadline = t
		}
	}
	c := Background()
	c.deadline = deadline
	done := ctx.Done()
	if done == nil {
		return c, func() {}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { //lint:nocontain — pure select on two channels, no solver code
		defer wg.Done()
		select {
		case <-done:
			c.Cancel()
		case <-stop:
		}
	}()
	return c, func() { close(stop); wg.Wait() }
}

// Child returns a sub-context: it shares the parent's deadline and
// observes the parent's cancellation, while Cancel on the child leaves
// the parent running. Its statistics node is the parent's child of the
// given name.
func (c *Ctx) Child(name string) *Ctx {
	if c == nil {
		return Background()
	}
	return &Ctx{parent: c, deadline: c.deadline, gov: c.gov, pool: c.pool, sched: c.sched, stats: c.stats.Child(name)}
}

// SetBudget installs a cooperative resource budget of n units on the
// tree rooted at c (n <= 0 removes it). Units are debited by Charge at
// the solver's big allocation sites; when the pool runs dry the whole
// tree stops with CauseBudget and the verdict degrades to UNKNOWN.
// Install before creating children — the meter is inherited at Child
// time.
func (c *Ctx) SetBudget(n int64) {
	if c == nil {
		return
	}
	if n <= 0 {
		c.gov = nil
		return
	}
	m := &meter{}
	m.remaining.Store(n)
	c.gov = m
}

// SetBudgetPool attaches a shared budget pool to the tree rooted at c
// (nil detaches). Charge debits the pool alongside any per-solve
// budget installed with SetBudget; when the pool runs dry the tree
// stops with CauseBudget, exactly as a per-solve trip does, but the
// exhaustion is shared — every other solve attached to the same pool
// trips on its next Charge too. Install before creating children.
func (c *Ctx) SetBudgetPool(p *Pool) {
	if c == nil {
		return
	}
	c.pool = p
}

// SetSchedule installs a deterministic fault-injection schedule
// consulted at every Poll and Charge site of the tree rooted at c.
// Install before creating children; a nil schedule means no injection.
func (c *Ctx) SetSchedule(s *fault.Schedule) {
	if c == nil {
		return
	}
	c.sched = s
}

// BudgetRemaining reports the units left in the governor's pool
// (negative once tripped) and whether a budget is installed at all.
func (c *Ctx) BudgetRemaining() (int64, bool) {
	if c == nil || c.gov == nil {
		return 0, false
	}
	return c.gov.remaining.Load(), true
}

// BudgetReason returns "budget: <site>" for the allocation site that
// exhausted the budget — or "budget: tenant <name>: <site>" when the
// stop came from a shared pool — and "" when no budget has tripped.
// The pool's site is only consulted when THIS context stopped with
// CauseBudget: the pool is shared, so another solve may have tripped
// it while this one stopped for its own reason.
func (c *Ctx) BudgetReason() string {
	if c == nil {
		return ""
	}
	if c.gov != nil {
		if site := c.gov.site.Load(); site != nil {
			return "budget: " + *site
		}
	}
	if c.pool != nil && c.Cause() == CauseBudget {
		if site := c.pool.m.site.Load(); site != nil {
			return "budget: " + c.pool.name + ": " + *site
		}
	}
	return ""
}

// tripBudget marks the budget exhausted at site and stops the subtree
// that owns the tripped meter: ancestors are marked too for as long as
// they share the same governor pointer (the pool is global to that
// subtree), so sibling branches observe the stop through
// cancelRequested. Where an ancestor carries a different meter — a
// portfolio attempt running under its own budget slice via SetBudget —
// the walk stops, confining the trip to the attempt and leaving the
// other racing attempts (and the race's parent) running.
func (c *Ctx) tripBudget(site string) {
	if c.gov != nil {
		c.gov.trip(site)
	}
	for p := c; p != nil && p.gov == c.gov; p = p.parent {
		p.markStopped(CauseBudget)
	}
}

// tripPool marks the shared pool exhausted at site and stops the
// subtree attached to it. Only contexts carrying the same pool pointer
// are stopped — the pool is tenant-wide, not process-wide, so solves
// of other tenants (and pool-less solves) keep running.
func (c *Ctx) tripPool(site string) {
	c.pool.m.trip(site)
	for p := c; p != nil && p.pool == c.pool; p = p.parent {
		p.markStopped(CauseBudget)
	}
}

// ApplyFault applies one injected fault op to the context: OpPanic
// panics (contain it at a boundary), OpCancel cancels, OpBudget trips
// the budget with site "injected". Injection sites outside the engine
// — the server's worker boundary — consult their own Schedule and act
// through this.
func (c *Ctx) ApplyFault(op fault.Op) {
	if op == fault.OpPanic {
		fault.InjectPanic()
	}
	if c == nil {
		return
	}
	switch op {
	case fault.OpCancel:
		c.Cancel()
	case fault.OpBudget:
		c.tripBudget("injected")
	}
}

// inject consults the fault schedule at a Poll/Charge site. It reports
// whether the context should stop (cancel and budget faults); a panic
// fault does not return.
func (c *Ctx) inject() bool {
	op := c.sched.Visit()
	if op == fault.OpNone {
		return false
	}
	c.ApplyFault(op)
	return true
}

// Charge debits n budget units at a named allocation site and reports
// whether the context should stop. It is Poll plus the resource
// governor: fault schedules fire here, the budget is debited here, and
// the cancellation/deadline checks ride along. Callers that trip the
// budget must discard partial work (or return results only valid under
// "the context is stopped" semantics) — see pfa.Sync.
func (c *Ctx) Charge(site string, n int64) bool {
	if c == nil {
		return false
	}
	if c.sched != nil && c.inject() {
		return true
	}
	// Both governors are debited on every Charge — the tenant pool
	// accounts for work even when the per-solve budget is the one that
	// ends it — and the per-solve trip wins the blame when both dry up.
	govDry := c.gov != nil && c.gov.remaining.Add(-n) < 0
	poolDry := c.pool != nil && c.pool.m.remaining.Add(-n) < 0
	if govDry {
		c.tripBudget(site)
		return true
	}
	if poolDry {
		c.tripPool(site)
		return true
	}
	return c.pollClock()
}

// Cancel stops the context and, transitively, its children.
func (c *Ctx) Cancel() {
	if c == nil {
		return
	}
	c.markStopped(CauseCancelled)
}

func (c *Ctx) markStopped(cause Cause) {
	c.cause.CompareAndSwap(int32(CauseNone), int32(cause))
	c.stopped.Store(true)
}

// cancelRequested reports whether this context or an ancestor has
// stopped.
func (c *Ctx) cancelRequested() bool {
	for p := c; p != nil; p = p.parent {
		if p.stopped.Load() {
			return true
		}
	}
	return false
}

// expireDeadline records a deadline expiry on this context and on every
// ancestor whose (inherited, hence identical or earlier) deadline has
// also passed, so the root's Cause classifies the run as timed out even
// when only a descendant observed the clock.
func (c *Ctx) expireDeadline(now time.Time) {
	for p := c; p != nil; p = p.parent {
		if !p.deadline.IsZero() && !now.Before(p.deadline) {
			p.markStopped(CauseDeadline)
		}
	}
}

// Poll reports whether the context should stop, cheaply enough for hot
// loops: the cancellation flags are checked on every call, the wall
// clock only once per pollStride calls.
func (c *Ctx) Poll() bool {
	if c == nil {
		return false
	}
	if c.sched != nil && c.inject() {
		return true
	}
	return c.pollClock()
}

// pollClock is Poll's cancellation/deadline half, shared with Charge
// (which has already consulted the fault schedule once).
func (c *Ctx) pollClock() bool {
	if c.cancelRequested() {
		c.markStopped(CauseCancelled)
		return true
	}
	if c.deadline.IsZero() {
		return false
	}
	if c.ticks.Add(1)%pollStride != 0 {
		return false
	}
	if now := time.Now(); !now.Before(c.deadline) {
		c.expireDeadline(now)
		return true
	}
	return false
}

// Expired is Poll without the stride: it always consults the wall
// clock. Use it at phase boundaries; hot loops use Poll.
func (c *Ctx) Expired() bool {
	if c == nil {
		return false
	}
	if c.sched != nil && c.inject() {
		return true
	}
	if c.cancelRequested() {
		c.markStopped(CauseCancelled)
		return true
	}
	if c.deadline.IsZero() {
		return false
	}
	if now := time.Now(); !now.Before(c.deadline) {
		c.expireDeadline(now)
		return true
	}
	return false
}

// Cause reports why this context stopped (CauseNone if it has not).
func (c *Ctx) Cause() Cause {
	if c == nil {
		return CauseNone
	}
	return Cause(c.cause.Load())
}

// TimedOut reports whether the context stopped because its deadline
// passed, as opposed to explicit cancellation or not stopping at all.
// Benchmark runners use it to count TIMEOUT only when the budget
// actually fired.
func (c *Ctx) TimedOut() bool {
	return c.Cause() == CauseDeadline
}

// Deadline returns the context's deadline, if any.
func (c *Ctx) Deadline() (time.Time, bool) {
	if c == nil || c.deadline.IsZero() {
		return time.Time{}, false
	}
	return c.deadline, true
}

// Stats returns the context's statistics node (nil for a nil context;
// Stats methods are nil-safe, so callers need not check).
func (c *Ctx) Stats() *Stats {
	if c == nil {
		return nil
	}
	return c.stats
}
