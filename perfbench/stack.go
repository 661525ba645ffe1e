package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/net"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Cluster and load shape shared by every workload (see WORKLOADS.md).
const (
	shards   = 4  // shard.Router backends, one replica.Group each
	replicas = 1  // synchronous read replicas per group
	workers  = 8  // the transformed program's executor pool
	maxBatch = 16 // coalescer MaxBatch on the batched workloads

	lookupsPerPage = 100 // RUBiS author lookups per page
	formsPerRange  = 50  // Forms: inserts per issue record
	rangesPerPage  = 4   // Forms: issue records per page
	formsAgents    = 500 // Forms: agent ids drawn from [0, formsAgents)
)

// workload is one benchmark configuration: an application kernel, the
// stack's latency scale and cache size, and how the program submits.
type workload struct {
	name    string
	app     func() *apps.App
	scale   float64 // simulated-latency scale: 1 = real µs, 0 = no sleeps
	pool    int     // buffer-pool pages per server; 0 keeps SYS1's default
	batched bool    // batch coalescer in front of the pool, else per-query submission
	warmup  int     // untimed warm-up pages per set-up
	args    func(rng *rand.Rand, page int) []interp.Value
}

var workloads = []*workload{
	{name: "read-cold", app: apps.RUBiS, scale: 1, pool: 2048, batched: true, warmup: 40, args: authorsPage},
	{name: "read-warm-async", app: apps.RUBiS, scale: 0, batched: false, warmup: 100, args: authorsPage},
	{name: "write-durable", app: apps.Forms, scale: 0, batched: true, warmup: 100, args: formsPage},
	{name: "write-sim", app: apps.Forms, scale: 1, batched: true, warmup: 40, args: formsPage},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// authorsPage draws one comment page's author ids with the RUBiS app's own
// generator.
func authorsPage(rng *rand.Rand, _ int) []interp.Value {
	return apps.RUBiS().Args(lookupsPerPage, rng)
}

// formsPage draws one page of form-issue records: rangesPerPage ranges of
// formsPerRange consecutive form numbers, each for a random agent. Form
// numbers are unique across pages (page p owns a block of its own), so the
// durability check can tell every acknowledged insert apart and map it
// back to its page.
func formsPage(rng *rand.Rand, page int) []interp.Value {
	var ranges interp.Rows
	next := int64(page*formsPerPage() + 1)
	for k := 0; k < rangesPerPage; k++ {
		ranges = append(ranges, interp.Row{
			"agent": int64(rng.Intn(formsAgents)),
			"lo":    next,
			"hi":    next + formsPerRange - 1,
		})
		next += formsPerRange
	}
	return []interp.Value{ranges}
}

func formsPerPage() int { return rangesPerPage * formsPerRange }

// pageOfForm inverts formsPage's numbering.
func pageOfForm(formno int64) int { return int((formno - 1) / int64(formsPerPage())) }

// page is one run of the transformed kernel. It keeps the return values
// and output, not the whole interp.Result: the final environment holds
// every handle and row the page fetched, and keeping those for thousands
// of pages would grow the heap the timed window's GC has to scan.
type page struct {
	args   []interp.Value
	ret    []interp.Value
	out    string
	digest uint64 // the tap's digest of every query result, in order
	err    error
	lat    time.Duration
	traced bool
	spans  layerTotals // traced pages only
}

// stack is one fully built system under test: the sharded replicated
// cluster behind a loopback TCP front door, the client, the transformed
// program and its executor pool — plus, once checkResults has run, the
// reference server.
type stack struct {
	w   *workload
	app *apps.App
	tr  *tracer // nil when untraced

	ref    *server.Server // correctness reference, loaded by checkResults
	groups []*replica.Group
	router *shard.Router
	front  *net.Server
	client *net.Client
	svc    *exec.Service
	tap    *tap
	in     *interp.Interp
	orig   *ir.Proc
	prog   *interp.Program

	walDir    string
	transform time.Duration

	rng   *rand.Rand
	pages []page // every page run on this stack, warm-up included
}

// buildStack loads the data, builds the cluster, connects, transforms and
// compiles the kernel and runs the warm-up pages: everything setup_s
// covers. dir is where the shards' WAL directories are created.
func buildStack(w *workload, seed int64, traced bool, dir string) (st *stack, err error) {
	st = &stack{w: w, app: w.app(), rng: rand.New(rand.NewSource(seed))}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if traced {
		st.tr = &tracer{}
	}
	src, err := loadReference(st.app)
	if err != nil {
		return st, err
	}
	// The load source is not part of the system under test: drop it once
	// partitioned, so its heap does not tax the timed window's GC.
	defer src.Close()

	prof := server.SYS1()
	if w.pool > 0 {
		prof.BufferPages = w.pool
	}
	if st.walDir, err = os.MkdirTemp(dir, "wal-"); err != nil {
		return st, err
	}
	backends := make([]shard.Backend, shards)
	for i := range backends {
		fs, err := wal.NewFileStore(filepath.Join(st.walDir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			return st, err
		}
		var store wal.Store = fs
		if traced {
			store = st.tr.store(fs)
		}
		g := replica.NewGroup(prof, w.scale, replica.Options{
			Replicas: replicas, Durability: wal.Group, Store: store,
		})
		st.groups = append(st.groups, g)
		backends[i] = g
		if traced {
			backends[i] = st.tr.backend(g)
		}
	}
	st.router = shard.NewWithBackends(backends, st.app.ShardKeys)
	if err := st.router.LoadFrom(src); err != nil {
		return st, fmt.Errorf("shard load: %w", err)
	}
	st.router.Warm()

	var backend query.Executor = st.router
	if traced {
		backend = st.tr.executor(st.router)
	}
	st.front = net.NewServer(backend, net.ServerOptions{})
	if err := st.front.Listen("127.0.0.1:0"); err != nil {
		return st, err
	}
	if st.client, err = net.Dial(st.front.Addr()); err != nil {
		return st, err
	}

	st.orig = st.app.Proc()
	start := time.Now()
	trans, rep, err := core.Transform(st.orig, core.Options{Registry: st.app.Registry(), SplitNested: true})
	st.transform = time.Since(start)
	if err != nil {
		return st, fmt.Errorf("transform %s: %w", st.app.Name, err)
	}
	if rep.TransformedCount() == 0 {
		return st, fmt.Errorf("transform %s: no site transformed", st.app.Name)
	}
	st.prog = interp.Compile(trans)

	var run exec.Runner = st.client.Exec
	var runBatch exec.BatchRunner = st.client.ExecBatch
	if traced {
		run, runBatch = st.tr.runner(run), st.tr.batchRunner(runBatch)
	}
	if w.batched {
		// The linger window is wall time; scale it like every simulated
		// latency, as the experiments harness does.
		linger := time.Duration(float64(batch.DefaultLinger) * w.scale)
		st.svc = batch.NewService(workers, run, runBatch, batch.Options{
			MaxBatch: maxBatch, Linger: linger, GroupFn: st.router.BatchGroup,
		})
	} else {
		st.svc = exec.NewService(workers, run)
	}
	st.tap = &tap{svc: st.svc}
	var qs interp.QueryService = st.tap
	if traced {
		qs = st.tr.service(st.tap)
	}
	st.in = interp.New(st.app.Registry(), qs)

	for i := 0; i < w.warmup; i++ {
		if p := st.runPage(); p.err != nil {
			return st, fmt.Errorf("warm-up page %d: %w", i, p.err)
		}
	}
	return st, nil
}

// loadReference builds a single in-process server holding the app's data.
func loadReference(app *apps.App) (*server.Server, error) {
	ref := server.New(server.SYS1(), 0)
	if err := app.Setup(ref, apps.SeededRand()); err != nil {
		ref.Close()
		return nil, fmt.Errorf("load %s: %w", app.Name, err)
	}
	return ref, nil
}

// runPage runs the transformed kernel once on fresh inputs and logs it.
func (st *stack) runPage() *page {
	args := st.w.args(st.rng, len(st.pages))
	start := time.Now()
	res, err := st.in.RunProgram(st.prog, args)
	p := page{args: args, err: err, lat: time.Since(start), digest: st.tap.take()}
	if err == nil {
		p.ret, p.out = res.Returned, res.Output
	}
	st.pages = append(st.pages, p)
	return &st.pages[len(st.pages)-1]
}

// quiesce stops the client side and the front door, leaving the cluster
// open for inspection.
func (st *stack) quiesce() {
	if st.svc != nil {
		st.svc.Close()
	}
	if st.client != nil {
		st.client.Close()
	}
	if st.front != nil {
		st.front.Close()
	}
}

// closeCluster shuts the shard groups down; their logs drain and close
// their stores.
func (st *stack) closeCluster() {
	if st.router != nil {
		st.router.Close()
		st.router = nil
	} else {
		for _, g := range st.groups {
			g.Close()
		}
	}
	st.groups = nil
}

// close releases everything the stack holds, its WAL files included.
func (st *stack) close() {
	st.quiesce()
	st.closeCluster()
	if st.ref != nil {
		st.ref.Close()
	}
	if st.walDir != "" {
		os.RemoveAll(st.walDir)
	}
}
