package table

import (
	"fmt"
	"testing"
	"time"

	"statebench/internal/sim"
)

func fixedParams() Params {
	return Params{OpLatency: sim.Fixed{D: 8 * time.Millisecond}, MaxBatch: 3}
}

func TestWriteReadDelete(t *testing.T) {
	k := sim.NewKernel(1)
	tb := New(k, "history", fixedParams())
	k.Spawn("c", func(p *sim.Proc) {
		tb.Write(p, "inst1", "0001", []byte("started"))
		v, ok := tb.Read(p, "inst1", "0001")
		if !ok || string(v) != "started" {
			t.Errorf("read = %q %v", v, ok)
		}
		if _, ok := tb.Read(p, "inst1", "9999"); ok {
			t.Error("read of missing row succeeded")
		}
	})
	k.Run()
	st := tb.Stats()
	if st.Writes != 1 || st.Reads != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestQueryBillsOneTransaction pins Query's contract: one billed
// query, one latency drawn from the table's own stream, whatever the
// partition holds, and the rows left as they were.
func TestQueryBillsOneTransaction(t *testing.T) {
	params := DefaultParams()
	k := sim.NewKernel(7)
	tb := New(k, "history", params)
	draws := sim.NewKernel(7).Stream("table/history")
	var elapsed []time.Duration
	k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			tb.Preload("inst1", fmt.Sprintf("%04d", i), []byte{byte(i)})
		}
		for _, pk := range []string{"inst1", "empty", "inst1"} {
			start := p.Now()
			tb.Query(p, pk)
			elapsed = append(elapsed, time.Duration(p.Now()-start))
		}
	})
	k.Run()
	for i, got := range elapsed {
		if want := params.OpLatency.Sample(draws); got != want {
			t.Fatalf("query %d took %v, want the stream's draw %d, %v", i, got, i, want)
		}
	}
	if st := tb.Stats(); st != (Stats{Queries: 3}) {
		t.Fatalf("stats = %+v, want 3 queries and nothing else", st)
	}
	if tb.Len() != 3 {
		t.Fatalf("rows = %d, want 3", tb.Len())
	}
	for i := 0; i < 3; i++ {
		if v, ok := tb.rows[rowKey{"inst1", fmt.Sprintf("%04d", i)}]; !ok || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("row %d = %v %v after queries", i, v, ok)
		}
	}
}

func TestWriteBatchGroupsTransactions(t *testing.T) {
	k := sim.NewKernel(1)
	tb := New(k, "history", fixedParams())
	k.Spawn("c", func(p *sim.Proc) {
		var ents []Entity
		for i := 0; i < 7; i++ {
			ents = append(ents, Entity{PK: "p", RK: fmt.Sprintf("%04d", i), Data: []byte{byte(i)}})
		}
		tb.WriteBatch(p, "p", ents)
	})
	k.Run()
	// 7 entities at MaxBatch=3 => 3 entity-group transactions.
	if tb.Stats().Batches != 3 {
		t.Fatalf("batches = %d, want 3", tb.Stats().Batches)
	}
	if tb.Len() != 7 {
		t.Fatalf("rows = %d", tb.Len())
	}
}

func TestWriteBatchRejectsMixedPartitions(t *testing.T) {
	k := sim.NewKernel(1)
	tb := New(k, "history", fixedParams())
	panicked := false
	k.Spawn("c", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		tb.WriteBatch(p, "p", []Entity{{PK: "other", RK: "1"}})
	})
	k.Run()
	if !panicked {
		t.Fatal("mixed-partition batch did not panic")
	}
}

func TestReadReturnsCopy(t *testing.T) {
	k := sim.NewKernel(1)
	tb := New(k, "history", fixedParams())
	k.Spawn("c", func(p *sim.Proc) {
		tb.Write(p, "p", "r", []byte("abc"))
		v, _ := tb.Read(p, "p", "r")
		v[0] = 'X'
		v2, _ := tb.Read(p, "p", "r")
		if string(v2) != "abc" {
			t.Errorf("store mutated through returned slice: %q", v2)
		}
	})
	k.Run()
}

func TestTransactionsTotal(t *testing.T) {
	k := sim.NewKernel(1)
	tb := New(k, "history", fixedParams())
	k.Spawn("c", func(p *sim.Proc) {
		tb.Write(p, "p", "1", nil)                          // 1 write
		tb.Read(p, "p", "1")                                // 1 read
		tb.Query(p, "p")                                    // 1 query
		tb.WriteBatch(p, "p", []Entity{{PK: "p", RK: "2"}}) // 1 batch
	})
	k.Run()
	if got := tb.Stats().Transactions(); got != 4 {
		t.Fatalf("transactions = %d, want 4", got)
	}
}
