package main

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Span kinds: one per layer boundary the benchmark times from outside the
// program. Each is recorded at a public entry point the benchmark hands to
// the stack (a wrapped QueryService, runner, executor, backend or store);
// nothing inside internal/ is instrumented.
const (
	spPage         = iota // one page: a run of the transformed kernel (driver)
	spSubmit              // interp.QueryService.Submit: exec.Service / batch coalescer
	spExec                // interp.QueryService.Exec: blocking submission
	spFetch               // interp.Handle.Fetch: waiting for a result
	spNetCall             // net.Client.Exec: one round trip
	spNetBatch            // net.Client.ExecBatch: one round trip (items = bindings)
	spFrontBackend        // the executor behind net.Server: the shard router
	spShardRead           // shard.Backend read call: replica.Group read path
	spShardWrite          // shard.Backend write call: replica.Group write path
	spWALAppend           // wal.Store.AppendRecords (items = records)
	spWALSync             // wal.Store.Sync: the real fsync
	numSpans
)

var spanNames = [numSpans]string{
	"interp.page", "interp.submit", "interp.exec", "interp.fetch",
	"net.call", "net.batch", "net.backend", "shard.read", "shard.write",
	"wal.append", "wal.sync",
}

// spanSum is the accumulated count, wall time and work items of one span
// kind.
type spanSum struct {
	n, ns, items int64
}

// layerTotals is one spanSum per span kind.
type layerTotals [numSpans]spanSum

func (a layerTotals) minus(b layerTotals) layerTotals {
	for i := range a {
		a[i].n -= b[i].n
		a[i].ns -= b[i].ns
		a[i].items -= b[i].items
	}
	return a
}

func (a *layerTotals) add(b layerTotals) {
	for i := range a {
		a[i].n += b[i].n
		a[i].ns += b[i].ns
		a[i].items += b[i].items
	}
}

func (a layerTotals) dur(k int) time.Duration { return time.Duration(a[k].ns) }

// pageFigures derives the span-based per-layer metrics from totals summed
// over traced pages (a[spPage].n of them). Self times subtract the next
// layer down's inclusive time; every ratio with no work behind it is 0.
func (a layerTotals) pageFigures() map[string]float64 {
	pages := float64(a[spPage].n)
	net := a.dur(spNetCall) + a.dur(spNetBatch)
	shards := a.dur(spShardRead) + a.dur(spShardWrite)
	inInterp := a.dur(spSubmit) + a.dur(spExec) + a.dur(spFetch)
	return map[string]float64{
		"interp.self_ms_per_page":       ratio(ms(selfTime(a.dur(spPage), inInterp)), pages),
		"interp.fetch_wait_ms_per_page": ratio(ms(a.dur(spFetch)), pages),
		"exec.submit_us":                ratio(us(a.dur(spSubmit)), float64(a[spSubmit].n)),
		"net.call_ms":                   ratio(ms(net), float64(a[spNetCall].n+a[spNetBatch].n)),
		"net.self_ms_per_page":          ratio(ms(selfTime(net, a.dur(spFrontBackend))), pages),
		"shard.self_ms_per_page":        ratio(ms(selfTime(a.dur(spFrontBackend), shards)), pages),
		"shard.fanout":                  ratio(float64(a[spShardRead].n+a[spShardWrite].n), float64(a[spFrontBackend].n)),
		"replica.read_ms":               ratio(ms(a.dur(spShardRead)), float64(a[spShardRead].n)),
		"replica.write_ms":              ratio(ms(a.dur(spShardWrite)), float64(a[spShardWrite].n)),
		"wal.sync_ms":                   ratio(ms(a.dur(spWALSync)), float64(a[spWALSync].n)),
		"wal.append_us":                 ratio(us(a.dur(spWALAppend)), float64(a[spWALAppend].items)),
	}
}

// tracer accumulates spans while on. The driver runs one page at a time,
// so every span recorded between two page boundaries belongs to the page
// in between; the driver snapshots the totals at each boundary and keeps
// the per-page deltas in memory. When off, every wrapper is a straight
// pass-through after one atomic load.
type tracer struct {
	on   atomic.Bool
	sums [numSpans]struct{ n, ns, items atomic.Int64 }
}

func (t *tracer) record(kind int, start time.Time, items int) {
	s := &t.sums[kind]
	s.ns.Add(int64(time.Since(start)))
	s.n.Add(1)
	s.items.Add(int64(items))
}

func (t *tracer) snapshot() layerTotals {
	var out layerTotals
	for i := range t.sums {
		out[i] = spanSum{n: t.sums[i].n.Load(), ns: t.sums[i].ns.Load(), items: t.sums[i].items.Load()}
	}
	return out
}

// service wraps the interpreter's QueryService (the exec.Service or the
// batch coalescer in front of it) and the handles it returns.
func (t *tracer) service(svc interp.QueryService) interp.QueryService {
	return tracedService{t: t, svc: svc}
}

type tracedService struct {
	t   *tracer
	svc interp.QueryService
}

func (s tracedService) Exec(name, sql string, args []interp.Value) (interp.Value, error) {
	if !s.t.on.Load() {
		return s.svc.Exec(name, sql, args)
	}
	start := time.Now()
	v, err := s.svc.Exec(name, sql, args)
	s.t.record(spExec, start, 1)
	return v, err
}

func (s tracedService) Submit(name, sql string, args []interp.Value) (interp.Handle, error) {
	if !s.t.on.Load() {
		return s.svc.Submit(name, sql, args)
	}
	start := time.Now()
	h, err := s.svc.Submit(name, sql, args)
	s.t.record(spSubmit, start, 1)
	if err != nil {
		return nil, err
	}
	return tracedHandle{t: s.t, h: h}, nil
}

type tracedHandle struct {
	t *tracer
	h interp.Handle
}

func (h tracedHandle) Fetch() (interp.Value, error) {
	start := time.Now()
	v, err := h.h.Fetch()
	h.t.record(spFetch, start, 1)
	return v, err
}

// runner wraps the exec.Runner handed to the executor pool: the net.Client
// Exec call.
func (t *tracer) runner(run exec.Runner) exec.Runner {
	return func(req query.Request) query.Result {
		if !t.on.Load() {
			return run(req)
		}
		start := time.Now()
		res := run(req)
		t.record(spNetCall, start, 1)
		return res
	}
}

// batchRunner wraps the exec.BatchRunner handed to the coalescer's pool:
// the net.Client ExecBatch call.
func (t *tracer) batchRunner(run exec.BatchRunner) exec.BatchRunner {
	return func(req query.BatchRequest) query.BatchResult {
		if !t.on.Load() {
			return run(req)
		}
		start := time.Now()
		res := run(req)
		t.record(spNetBatch, start, len(req.ArgSets))
		return res
	}
}

// executor wraps the query.Executor passed to net.NewServer (the router),
// so the server side of every round trip is timed.
func (t *tracer) executor(next query.Executor) query.Executor {
	return tracedExecutor{t: t, next: next}
}

type tracedExecutor struct {
	t    *tracer
	next query.Executor
}

func (e tracedExecutor) Exec(req query.Request) query.Result {
	if !e.t.on.Load() {
		return e.next.Exec(req)
	}
	start := time.Now()
	res := e.next.Exec(req)
	e.t.record(spFrontBackend, start, 1)
	return res
}

func (e tracedExecutor) ExecBatch(req query.BatchRequest) query.BatchResult {
	if !e.t.on.Load() {
		return e.next.ExecBatch(req)
	}
	start := time.Now()
	res := e.next.ExecBatch(req)
	e.t.record(spFrontBackend, start, len(req.ArgSets))
	return res
}

// backend wraps one shard's replica group as the router sees it; reads and
// writes are timed apart because they take different paths through the
// group.
func (t *tracer) backend(b shard.Backend) shard.Backend {
	return tracedBackend{Backend: b, t: t}
}

type tracedBackend struct {
	shard.Backend
	t *tracer
}

func (b tracedBackend) Exec(req query.Request) query.Result {
	if !b.t.on.Load() {
		return b.Backend.Exec(req)
	}
	start := time.Now()
	res := b.Backend.Exec(req)
	b.t.record(backendKind(req.SQL), start, 1)
	return res
}

func (b tracedBackend) ExecBatch(req query.BatchRequest) query.BatchResult {
	if !b.t.on.Load() {
		return b.Backend.ExecBatch(req)
	}
	start := time.Now()
	res := b.Backend.ExecBatch(req)
	b.t.record(backendKind(req.SQL), start, len(req.ArgSets))
	return res
}

// backendKind classifies a statement the way the replica group routes it:
// INSERTs take the write path, everything else the read path.
func backendKind(sql string) int {
	s := strings.TrimSpace(sql)
	if len(s) >= 6 && strings.EqualFold(s[:6], "insert") {
		return spShardWrite
	}
	return spShardRead
}

// store wraps a shard's WAL store (replica.Options.Store).
func (t *tracer) store(s wal.Store) wal.Store {
	return tracedStore{Store: s, t: t}
}

type tracedStore struct {
	wal.Store
	t *tracer
}

func (s tracedStore) AppendRecords(recs []wal.Record) (int, error) {
	if !s.t.on.Load() {
		return s.Store.AppendRecords(recs)
	}
	start := time.Now()
	n, err := s.Store.AppendRecords(recs)
	s.t.record(spWALAppend, start, len(recs))
	return n, err
}

func (s tracedStore) Sync() error {
	if !s.t.on.Load() {
		return s.Store.Sync()
	}
	start := time.Now()
	err := s.Store.Sync()
	s.t.record(spWALSync, start, 1)
	return err
}
