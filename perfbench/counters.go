package main

import (
	"math"
	"time"
)

// counters is a snapshot of the counters the layers already export,
// summed over the cluster: server.Stats of every copy (buffer pool, disk,
// simulated time), replica.Group.WALStats, the log's retained suffix,
// Service.BatchStats, and the client's and front door's retry/shed counts.
type counters struct {
	netRequests, queries, rowsRead int64
	hits, misses                   int64
	diskPages, diskReqs            int64
	diskQueue                      float64 // Σ queue depth seen by each disk request
	sim                            time.Duration
	inserts                        int64 // rows inserted on the primaries
	syncs, syncedRecs, syncedBytes int64
	retained                       int64 // WAL records held in memory (a level, not a count)
	batches, batched               int64 // coalescer batch jobs and the requests they carried
	retriesShed                    int64
}

// minus returns the activity between two snapshots; retained stays the
// later level.
func (c counters) minus(o counters) counters {
	return counters{
		netRequests: c.netRequests - o.netRequests,
		queries:     c.queries - o.queries,
		rowsRead:    c.rowsRead - o.rowsRead,
		hits:        c.hits - o.hits,
		misses:      c.misses - o.misses,
		diskPages:   c.diskPages - o.diskPages,
		diskReqs:    c.diskReqs - o.diskReqs,
		diskQueue:   c.diskQueue - o.diskQueue,
		sim:         c.sim - o.sim,
		inserts:     c.inserts - o.inserts,
		syncs:       c.syncs - o.syncs,
		syncedRecs:  c.syncedRecs - o.syncedRecs,
		syncedBytes: c.syncedBytes - o.syncedBytes,
		retained:    c.retained,
		batches:     c.batches - o.batches,
		batched:     c.batched - o.batched,
		retriesShed: c.retriesShed - o.retriesShed,
	}
}

// counterFigures derives the counter-based per-layer metrics for pages
// pages of activity d. Every ratio with no work behind it is 0.
func (d counters) counterFigures(pages int) map[string]float64 {
	p := float64(pages)
	return map[string]float64{
		"batch.calls_per_page":           ratio(float64(d.batches), p),
		"batch.bindings_per_call":        ratio(float64(d.batched), float64(d.batches)),
		"net.retries_shed":               float64(d.retriesShed),
		"wal.syncs_per_page":             ratio(float64(d.syncs), p),
		"wal.records_per_sync":           ratio(float64(d.syncedRecs), float64(d.syncs)),
		"wal.bytes_per_row":              ratio(float64(d.syncedBytes), float64(d.inserts)),
		"wal.retained_records":           float64(d.retained),
		"server.requests_per_page":       ratio(float64(d.netRequests), p),
		"server.sim_ms_per_page":         ratio(ms(d.sim), p),
		"server.rows_examined_per_query": ratio(float64(d.rowsRead), float64(d.queries)),
		"buffer.hit_ratio":               ratio(float64(d.hits), float64(d.hits+d.misses)),
		"disk.pages_read_per_page":       ratio(float64(d.diskPages), p),
		"disk.avg_queue":                 ratio(d.diskQueue, float64(d.diskReqs)),
	}
}

// readCounters snapshots the stack's exported counters.
func readCounters(st *stack) counters {
	var c counters
	for _, g := range st.groups {
		for i, s := range g.CopyStats() {
			c.netRequests += s.NetRequests
			c.queries += s.Queries
			c.rowsRead += s.RowsRead
			c.hits += s.BufferHits
			c.misses += s.BufferMiss
			c.diskPages += s.Disk.PagesRead
			c.diskReqs += s.Disk.Requests
			c.diskQueue += s.Disk.AvgQueue * float64(s.Disk.Requests)
			c.sim += s.VirtualTime
			if i == 0 {
				c.inserts += s.Inserts
			}
		}
		w := g.WALStats()
		c.syncs += w.Syncs
		c.syncedRecs += w.SyncedRecords
		c.syncedBytes += w.SyncedBytes
		c.retained += g.Log().LastLSN() - g.Log().TailStart()
	}
	b, avg := st.svc.BatchStats()
	c.batches = b
	c.batched = int64(math.Round(avg * float64(b)))
	c.retriesShed = st.client.Retries() + st.client.Reconnects() + st.front.Admission().Shed()
	return c
}
