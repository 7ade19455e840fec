package durable

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/cloud/queue"
	"statebench/internal/cloud/table"
	"statebench/internal/obs/span"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// classicStore is the Azure Storage task hub of the paper: partitioned
// control queues and a work-item queue polled by billed listeners, a
// history table queried and appended per episode, and an instances
// table for entity state. Every round trip is a billed storage
// transaction — the per-operation cost structure whose anomalies the
// paper measures (Fig 11a/11c/15) and which the Netherite store exists
// to amortize away.
type classicStore struct {
	k      *sim.Kernel
	h      *Hub
	params platform.AzureParams

	control   []*queue.Queue
	workItems *queue.Queue
	history   *table.Table
	instances *table.Table

	// records is each instance's committed history, decoded. The
	// history table holds one keyed row per record and bills every
	// access; replay reads the records from here, as Netherite's
	// materialized history does.
	records map[string][]Record

	// listeners[i] polls control[i]; wiListener polls workItems.
	listeners  []*queue.Listener
	wiListener *queue.Listener
}

// newClassicStore builds the storage-queue backend. Construction order
// (work-item queue, history, instances, control partitions) is part of
// the determinism contract with pre-seam builds: every named RNG
// stream and kernel allocation happens in the same sequence.
func newClassicStore(k *sim.Kernel, name string, params platform.AzureParams) *classicStore {
	s := &classicStore{
		k:         k,
		params:    params,
		workItems: queue.New(k, name+"-workitems", durableQueueParams(params)),
		history:   table.New(k, name+"-history", table.DefaultParams()),
		instances: table.New(k, name+"-instances", table.DefaultParams()),
		records:   make(map[string][]Record),
	}
	for i := 0; i < params.ControlQueuePartitions; i++ {
		s.control = append(s.control, queue.New(k, fmt.Sprintf("%s-control-%02d", name, i), durableQueueParams(params)))
		s.listeners = append(s.listeners, queue.NewListener(k))
	}
	s.wiListener = queue.NewListener(k)
	return s
}

func durableQueueParams(p platform.AzureParams) queue.Params {
	qp := queue.DefaultParams()
	qp.MaxPayload = p.QueuePayloadLimit
	// The Durable Task Framework never poisons its own control or
	// work-item messages — it redelivers until the episode succeeds —
	// so dead-lettering is disabled on task-hub queues (liveness:
	// a dead-lettered control message would strand its orchestration).
	qp.MaxDequeueCount = 0
	return qp
}

// Start implements Store: bind the hub and launch the polling
// listeners. They poll with adaptive back-off — every poll is a billed
// transaction, the idle-cost mechanism the paper highlights — reset it
// whenever an HTTP trigger shows the app is active, and stop with the
// host.
func (s *classicStore) Start(h *Hub) {
	s.h = h
	h.host.OnHTTPActivity(s.kickAll)
	stop, maxPoll := h.host.StopSignal(), s.params.DurableMaxPoll
	for i := range s.control {
		s.k.Spawn(fmt.Sprintf("durable/control-%d", i), func(p *sim.Proc) {
			s.listeners[i].Run(p, s.control[i], maxPoll, stop, envelopes(h.DeliverControl))
		})
	}
	s.k.Spawn("durable/workitems", func(p *sim.Proc) {
		s.wiListener.Run(p, s.workItems, maxPoll, stop, envelopes(h.DeliverWork))
	})
}

// kickAll resets every listener's poll back-off.
func (s *classicStore) kickAll() {
	for _, l := range s.listeners {
		l.Kick()
	}
	s.wiListener.Kick()
}

// envelopes adapts an envelope handler to a queue listener: the
// message body is the Envelope the sender enqueued.
func envelopes(handle func(Envelope)) func(*queue.Message) {
	return func(m *queue.Message) { handle(m.Body.(Envelope)) }
}

// partitionOf maps an instance ID onto a control-queue partition.
func (s *classicStore) partitionOf(instance string) int {
	f := fnv.New32a()
	_, _ = f.Write([]byte(instance))
	return int(f.Sum32()) % len(s.control)
}

// encodedSize returns the size the task-hub queues' payload limit
// reads for m: its JSON length. An envelope travels as a typed value
// and is never encoded on the way. Under the limit its size bound
// stands in for the length, since both are accepted; only a bound over
// the limit pays for the encoding, so the queue accepts and rejects,
// and reports the size of a rejected envelope, as it would for the
// JSON body.
func (s *classicStore) encodedSize(m Envelope) (int, error) {
	n := m.sizeBound()
	if limit := s.params.QueuePayloadLimit; limit <= 0 || n <= limit {
		return n, nil
	}
	body, err := json.Marshal(m)
	return len(body), err
}

// SendControl implements Store: enqueue a control message from kernel
// or callback context and kick the partition's listener. The hop span
// parents to the context stamped on the message.
func (s *classicStore) SendControl(m Envelope) error {
	size, err := s.encodedSize(m)
	if err != nil {
		return err
	}
	p := s.partitionOf(m.Instance)
	if err := s.control[p].EnqueueFromKernelCtx(m, size, m.traceCtx()); err != nil {
		return err
	}
	s.listeners[p].Kick()
	return nil
}

// SendControlFromProc implements Store: enqueue a control message,
// charging queue latency to p.
func (s *classicStore) SendControlFromProc(p *sim.Proc, m Envelope) error {
	size, err := s.encodedSize(m)
	if err != nil {
		return err
	}
	part := s.partitionOf(m.Instance)
	if err := s.control[part].Enqueue(p, m, size); err != nil {
		return err
	}
	s.listeners[part].Kick()
	return nil
}

// SendWork implements Store: enqueue an activity work item.
func (s *classicStore) SendWork(m Envelope) error {
	size, err := s.encodedSize(m)
	if err != nil {
		return err
	}
	if err := s.workItems.EnqueueFromKernelCtx(m, size, m.traceCtx()); err != nil {
		return err
	}
	s.wiListener.Kick()
	return nil
}

// LoadHistory implements Store: a billed table query every episode,
// which draws the query latency whatever the partition holds. The
// records are a copy of the committed slice; their Data is shared and
// read-only.
func (s *classicStore) LoadHistory(p *sim.Proc, instance string) []Record {
	s.history.Query(p, instance)
	recs := s.records[instance]
	out := make([]Record, len(recs))
	copy(out, recs)
	return out
}

// CommitEpisode implements Store: one synchronous billed batch write of
// one keyed row per record; the classic hub never loses a written
// batch, and the write is durable the moment WriteBatch returns (zero
// settle delay). The records are then appended to the instance's
// decoded history with their Data copied once, nil when empty, so the
// caller's buffers never reach a later load.
func (s *classicStore) CommitEpisode(p *sim.Proc, instance, orchestrator string, tctx sim.TraceContext, recs []Record) (CommitVerdict, time.Duration) {
	if len(recs) == 0 {
		return CommitOK, 0
	}
	ents := make([]table.Entity, len(recs))
	for i, ev := range recs {
		ents[i] = table.Entity{PK: instance, RK: fmt.Sprintf("%06d", ev.Seq)}
	}
	s.history.WriteBatch(p, instance, ents)
	hist := s.records[instance]
	for _, ev := range recs {
		if len(ev.Data) == 0 {
			ev.Data = nil
		} else {
			ev.Data = slices.Clip(slices.Clone(ev.Data))
		}
		hist = append(hist, ev)
	}
	s.records[instance] = hist
	return CommitOK, 0
}

// ReadEntityState implements Store: a billed table read plus the
// calibrated state-access latency.
func (s *classicStore) ReadEntityState(p *sim.Proc, instance string) ([]byte, bool) {
	row, ok := s.instances.Read(p, instance, "state")
	p.Sleep(s.params.EntityStateRTT.Sample(s.h.rng))
	return row, ok
}

// WriteEntityState implements Store: a billed table write.
func (s *classicStore) WriteEntityState(p *sim.Proc, instance string, data []byte) {
	s.instances.Write(p, instance, "state", data)
}

// QueryEntityState implements Store: the client's status-query read,
// a billed table read without the executor's rehydration latency.
func (s *classicStore) QueryEntityState(p *sim.Proc, instance string) ([]byte, bool) {
	return s.instances.Read(p, instance, "state")
}

// Transactions implements Store: billable storage transactions across
// the hub's queues and tables — the stateful cost component of Azure.
func (s *classicStore) Transactions() int64 {
	total := s.workItems.Stats().Transactions()
	for _, q := range s.control {
		total += q.Stats().Transactions()
	}
	total += s.history.Stats().Transactions()
	total += s.instances.Stats().Transactions()
	return total
}

// SetTracer implements Store: queue hops emit their own spans.
func (s *classicStore) SetTracer(tr *span.Tracer) {
	s.workItems.Tracer = tr
	for _, q := range s.control {
		q.Tracer = tr
	}
}

// SetChaos implements Store: at-least-once delivery faults
// (redelivery, duplicates) inject at the queues.
func (s *classicStore) SetChaos(inj *chaos.Injector) {
	s.workItems.Chaos = inj
	for _, q := range s.control {
		q.Chaos = inj
	}
}
