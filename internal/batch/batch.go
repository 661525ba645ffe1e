// Package batch implements batched query submission: a coalescing layer in
// front of the asynchronous executor that groups submissions sharing the
// same prepared statement into one set-oriented batch call, amortizing the
// per-request network round trip and planning cost (the batching sibling of
// asynchronous submission in Chavan et al., ICDE 2011; see README.md for
// the batch lifecycle).
//
// Transformed programs need no changes: Submit hands back a pending handle
// immediately, exactly like the per-query path, and the coalescer
// demultiplexes the batch results onto those handles when the batch
// completes.
package batch

import (
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/query"
)

// Defaults for Options fields left zero.
const (
	// DefaultMaxBatch bounds how many requests one batch carries.
	DefaultMaxBatch = 16
	// DefaultLinger bounds how long a partial batch waits for company. It
	// must be positive whenever batching is on: a partial batch with no
	// linger deadline would strand its handles until Close.
	DefaultLinger = 200 * time.Microsecond
)

// Options configure the coalescer.
type Options struct {
	// MaxBatch is the maximum number of requests per batch (0 = default;
	// any other value below 2 disables coalescing — Enable and NewService
	// treat it as "off").
	MaxBatch int
	// Linger is how long a partial batch waits before flushing (0 =
	// default). It is a runtime timer, so it fires late: the runtime
	// poller waits in whole milliseconds, and on an otherwise idle
	// process a 200µs linger fired a median 0.91ms late (p99 1.28ms) on a
	// 2-vCPU VM. Fetching a handle whose batch is still lingering blocks
	// until that late flush, plus the batch's execution time.
	Linger time.Duration
	// GroupFn, when set, refines the coalescing key: requests batch together
	// only when they share (name, sql) AND the returned group id. A sharded
	// backend (internal/shard) supplies its partition function here so each
	// batch targets a single shard and never has to be split downstream —
	// the sharded run then pays exactly as many round trips as a
	// single-server run, just spread over parallel backends. Replicated
	// backends (internal/replica) compose transparently: a whole read batch
	// rides one round trip to one replica of its shard's group, so round
	// trips still match the single server while successive batches spread
	// over the replicas (pinned by TestReplicatedBackendRoundTripsMatchSingleServer).
	GroupFn func(name, sql string, args []any) int
}

func (o Options) normalized() Options {
	if o.MaxBatch < 2 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.Linger <= 0 {
		o.Linger = DefaultLinger
	}
	return o
}

// off reports whether the options ask for batching to be disabled: an
// explicit non-zero MaxBatch below 2 means "one request per batch", i.e. no
// coalescing at all.
func (o Options) off() bool { return o.MaxBatch != 0 && o.MaxBatch < 2 }

// key identifies a coalescing group: submissions batch together only when
// they share the same prepared statement (and, with Options.GroupFn, the
// same group id — e.g. the same target shard).
type key struct {
	name, sql string
	group     int
}

// group is one open (still filling) batch.
type group struct {
	key     key
	argSets [][]any
	handles []*exec.Handle
	timer   *time.Timer
	// fireAt is when the linger timer is scheduled to flush the group. A
	// member whose deadline lands earlier pulls the flush forward — a
	// deadline-bearing request never waits out a linger window it cannot
	// afford.
	fireAt time.Time
	// waits holds the traced members' "batch.wait" spans (parallel to
	// handles, nil entries for untraced members); dispatch ends them —
	// their wall time is fill + linger, the price a request pays to share
	// the round trip.
	waits []*obs.Span
}

// endWaits closes every member's coalescing-wait span.
func (g *group) endWaits() {
	for _, w := range g.waits {
		w.End()
	}
}

// Coalescer groups submissions into batch jobs on an executor. It is safe
// for concurrent use.
type Coalescer struct {
	ex   *exec.Executor
	opts Options

	mu     sync.Mutex
	idle   sync.Cond // signalled when inflight drops to zero
	groups map[key]*group
	closed bool
	// inflight counts groups removed from the map but not yet handed to the
	// executor (incremented under mu, in the same critical section as the
	// removal), so Flush/Close can wait for them: otherwise a linger-timer
	// flush paused between removal and dispatch would be invisible to
	// Close, and the owner could close the executor under it.
	inflight int
}

// New builds a coalescer over ex. The executor should have been created
// with a BatchRunner (exec.NewBatchExecutor); without one, batches still
// execute correctly but degrade to per-binding calls on a single worker.
func New(ex *exec.Executor, opts Options) *Coalescer {
	c := &Coalescer{ex: ex, opts: opts.normalized(), groups: map[key]*group{}}
	c.idle.L = &c.mu
	return c
}

// Submit enqueues one request and returns its handle immediately
// (implementing exec.Batcher). The request joins the open batch for
// (name, sql), creating one if needed; the batch flushes when it reaches
// MaxBatch requests, its linger window expires, or the earliest member
// deadline arrives, whichever comes first. The request's span rides the
// pending handle, with a "batch.wait" child covering the time between
// submission and dispatch — batch fill plus linger, the coalescing cost the
// paper's batched submission trades for shared round trips. A request whose
// deadline already expired completes immediately with
// query.ErrDeadlineExceeded instead of joining a batch.
func (c *Coalescer) Submit(req query.Request) (*exec.Handle, error) {
	h := exec.NewPendingHandle(req.Span, req.Deadline)
	if req.Deadline.Expired() {
		h.Complete(nil, query.ErrDeadlineExceeded)
		return h, nil
	}
	k := key{name: req.Name, sql: req.SQL}
	if c.opts.GroupFn != nil {
		k.group = c.opts.GroupFn(req.Name, req.SQL, req.Args)
	}
	wait := req.Span.Child("batch.wait") // nil-safe: nil for untraced requests
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		wait.End()
		return nil, exec.ErrClosed
	}
	g := c.groups[k]
	if g == nil {
		g = &group{key: k, fireAt: time.Now().Add(c.opts.Linger)}
		c.groups[k] = g
		// The timer closure captures the group, not the key: if the group
		// was already flushed (full, or by Flush/Close) and a new one opened
		// under the same key, a stale firing must not steal it.
		g.timer = time.AfterFunc(c.opts.Linger, func() { c.flushGroup(g) })
	}
	g.argSets = append(g.argSets, req.Args)
	g.handles = append(g.handles, h)
	if wait != nil {
		if g.waits == nil {
			g.waits = make([]*obs.Span, 0, c.opts.MaxBatch)
		}
		g.waits = append(g.waits, wait)
	}
	// A member that cannot afford the full linger pulls the flush forward:
	// the group fires at the earliest member deadline instead.
	if t, ok := req.Deadline.Time(); ok && t.Before(g.fireAt) {
		g.fireAt = t
		g.timer.Reset(time.Until(t))
	}
	var full *group
	if len(g.handles) >= c.opts.MaxBatch {
		delete(c.groups, k)
		g.timer.Stop()
		c.inflight++
		full = g
	}
	c.mu.Unlock()
	if full != nil {
		c.dispatch(full)
	}
	return h, nil
}

// flushGroup dispatches g if it is still the open group for its key.
func (c *Coalescer) flushGroup(g *group) {
	c.mu.Lock()
	if c.groups[g.key] != g {
		c.mu.Unlock()
		return
	}
	delete(c.groups, g.key)
	c.inflight++
	c.mu.Unlock()
	c.dispatch(g)
}

// dispatch hands one closed batch (already counted in inflight) to the
// executor. If the executor refuses (closed), every pending handle is
// failed so Fetch never blocks forever.
func (c *Coalescer) dispatch(g *group) {
	defer func() {
		c.mu.Lock()
		c.inflight--
		if c.inflight == 0 {
			c.idle.Broadcast()
		}
		c.mu.Unlock()
	}()
	g.endWaits() // coalescing is over; the batch heads for the executor
	if err := c.ex.SubmitBatch(query.BatchReq(g.key.name, g.key.sql, g.argSets), g.handles); err != nil {
		for _, h := range g.handles {
			h.Complete(nil, err)
		}
	}
}

// Flush dispatches every partial batch immediately, without waiting for the
// linger windows, and returns only once every in-flight flush (including
// concurrent linger-timer flushes) has reached the executor — so the owner
// may close the executor after Flush and still drain all batches.
func (c *Coalescer) Flush() {
	c.mu.Lock()
	gs := make([]*group, 0, len(c.groups))
	for k, g := range c.groups {
		g.timer.Stop()
		c.inflight++
		gs = append(gs, g)
		delete(c.groups, k)
	}
	c.mu.Unlock()
	for _, g := range gs {
		c.dispatch(g)
	}
	c.mu.Lock()
	for c.inflight > 0 {
		c.idle.Wait()
	}
	c.mu.Unlock()
}

// Close flushes all buffered submissions and rejects further ones with
// exec.ErrClosed. It does not close the underlying executor (the owner
// does, after Close returns, so the flushed batches still execute).
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.Flush()
}

// Enable installs a coalescer with the given options on a service built by
// exec.NewBatchService. It returns nil without installing anything when the
// service runs degraded (no pool — the batching toggle is a no-op there) or
// when opts disable batching (explicit MaxBatch below 2).
func Enable(s *exec.Service, opts Options) *Coalescer {
	if s.Executor() == nil || opts.off() {
		return nil
	}
	c := New(s.Executor(), opts)
	s.SetBatcher(c)
	return c
}

// NewService builds a batching query service: an exec.Service whose worker
// pool executes set-oriented batches through runBatch and whose Submit path
// coalesces via Enable. With workers == 0 it degrades exactly like
// exec.NewService (synchronous fallback, batching off).
func NewService(workers int, run exec.Runner, runBatch exec.BatchRunner, opts Options) *exec.Service {
	s := exec.NewBatchService(workers, run, runBatch)
	Enable(s, opts)
	return s
}
