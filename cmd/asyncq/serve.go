package main

import (
	"fmt"
	"io"

	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// serveOptions are the -serve flags (see run).
type serveOptions struct {
	addr       string
	rows       int
	inflight   int
	replicas   int
	durability string
	scale      float64
}

// frontDoor is a running -serve front door and the replica group behind it.
type frontDoor struct {
	g   *replica.Group
	fd  *net.Server
	reg *obs.Registry
}

// serve starts the network front door: a replica group over the simulated
// server (the full submission stack's backend), preloaded with the `load`
// table cmd/loadgen drives, fronted by the wire protocol with a bounded
// admission budget. It returns once the listener is up; the caller decides
// when to shut it down.
func serve(o serveOptions, stdout io.Writer) (_ *frontDoor, err error) {
	mode := wal.Group
	if o.durability != "" {
		if mode, err = wal.ParseMode(o.durability); err != nil {
			return nil, err
		}
	}
	if o.replicas < 1 {
		o.replicas = 1
	}
	g := replica.NewGroup(server.SYS1(), o.scale, replica.Options{
		Replicas:   o.replicas,
		Durability: mode,
	})
	defer func() {
		if err != nil {
			g.Close()
		}
	}()
	schema := storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "val", Type: storage.TString},
	)
	if err = g.CreateTable("load", schema, 0); err != nil {
		return nil, err
	}
	for i := 1; i <= o.rows; i++ {
		if err = g.InsertRow("load", []any{int64(i), fmt.Sprintf("v%d", i)}); err != nil {
			return nil, err
		}
	}
	g.FinishLoad()
	if err = g.AddIndex("load", "id", true); err != nil {
		return nil, err
	}
	g.Warm()

	reg := obs.NewRegistry()
	g.RegisterMetrics(reg, "")
	fd := net.NewServer(g, net.ServerOptions{
		MaxInflight: o.inflight,
		Metrics:     reg,
	})
	if err = fd.Listen(o.addr); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "asyncq: serving %d-row load table on %s (replicas=%d durability=%s inflight=%d)\n",
		o.rows, fd.Addr(), o.replicas, mode, o.inflight)
	return &frontDoor{g: g, fd: fd, reg: reg}, nil
}

// shutdown dumps the registry to stderr when stats is set, then closes the
// front door and the group.
func (f *frontDoor) shutdown(stderr io.Writer, stats bool) error {
	defer f.g.Close()
	defer f.fd.Close()
	fmt.Fprintln(stderr, "asyncq: shutting down")
	if !stats {
		return nil
	}
	fmt.Fprintln(stderr, "-- stats:")
	return f.reg.Dump(stderr)
}
