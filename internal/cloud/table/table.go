// Package table models a cloud NoSQL table (Azure Table Storage /
// DynamoDB analogue) keyed by (partition key, row key). The Durable
// Task Framework stores orchestration event-sourcing history here, so
// table transactions are a metered component of Azure's stateful cost.
package table

import (
	"time"

	"statebench/internal/sim"
)

// Params describes table latency and batching limits.
type Params struct {
	// OpLatency is the per-operation service latency.
	OpLatency sim.Dist
	// MaxBatch is the maximum entities per batch write (Azure: 100,
	// single partition). 0 disables batching limits.
	MaxBatch int
}

// DefaultParams matches Azure Table Storage: ~8 ms operations and
// 100-entity entity-group transactions.
func DefaultParams() Params {
	return Params{
		OpLatency: sim.NewLogNormal(8*time.Millisecond, 0.4, time.Second),
		MaxBatch:  100,
	}
}

// Entity is one stored row.
type Entity struct {
	PK   string
	RK   string
	Data []byte
}

// Stats counts table operations.
type Stats struct {
	Reads   int64
	Writes  int64
	Queries int64
	Batches int64
}

// Transactions returns the billable transaction count. A batch counts
// as one transaction (entity-group transaction), a query as one per
// returned page (pages modeled as one here).
func (s Stats) Transactions() int64 { return s.Reads + s.Writes + s.Queries + s.Batches }

type rowKey struct{ pk, rk string }

// Table is a simulated NoSQL table.
type Table struct {
	rng    *sim.RNG
	params Params
	rows   map[rowKey][]byte
	stats  Stats
}

// New creates an empty table named name.
func New(k *sim.Kernel, name string, params Params) *Table {
	return &Table{rng: k.Stream("table/" + name), params: params, rows: make(map[rowKey][]byte)}
}

// Stats returns a snapshot of the operation counters.
func (t *Table) Stats() Stats { return t.stats }

// Len returns the number of rows (control-plane; free).
func (t *Table) Len() int { return len(t.rows) }

// Write upserts one row, consuming one operation latency.
func (t *Table) Write(p *sim.Proc, pk, rk string, data []byte) {
	t.stats.Writes++
	p.Sleep(t.params.OpLatency.Sample(t.rng))
	cp := make([]byte, len(data))
	copy(cp, data)
	t.rows[rowKey{pk, rk}] = cp
}

// Read fetches one row. A miss still costs one operation.
func (t *Table) Read(p *sim.Proc, pk, rk string) ([]byte, bool) {
	t.stats.Reads++
	p.Sleep(t.params.OpLatency.Sample(t.rng))
	data, ok := t.rows[rowKey{pk, rk}]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, true
}

// Preload upserts one row without consuming virtual time or metering a
// transaction — for staging state that exists before the measured
// window (e.g. entities trained in an earlier campaign).
func (t *Table) Preload(pk, rk string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	t.rows[rowKey{pk, rk}] = cp
}

// WriteBatch upserts entities as entity-group transactions of up to
// MaxBatch rows each; every group is one metered transaction. All
// entities must share pk (enforced, matching Azure).
func (t *Table) WriteBatch(p *sim.Proc, pk string, entities []Entity) {
	if len(entities) == 0 {
		return
	}
	max := t.params.MaxBatch
	if max <= 0 {
		max = len(entities)
	}
	for start := 0; start < len(entities); start += max {
		end := start + max
		if end > len(entities) {
			end = len(entities)
		}
		t.stats.Batches++
		p.Sleep(t.params.OpLatency.Sample(t.rng))
		for _, e := range entities[start:end] {
			if e.PK != pk {
				panic("table: WriteBatch entities must share a partition key")
			}
			cp := make([]byte, len(e.Data))
			copy(cp, e.Data)
			t.rows[rowKey{e.PK, e.RK}] = cp
		}
	}
}

// Query reads partition pk, consuming one operation latency: one
// billed transaction (one page) whatever the partition holds. It is
// how an orchestration's history load is billed; the caller keeps
// the history decoded, so the rows themselves are not returned.
func (t *Table) Query(p *sim.Proc, pk string) {
	t.stats.Queries++
	p.Sleep(t.params.OpLatency.Sample(t.rng))
}
