// Package netherite simulates the Netherite backend for the Durable
// Task Framework ("Serverless Workflows with Durable Functions and
// Netherite", Burckhardt et al.): the vendor's shipped replacement for
// the classic Azure Storage task hub. Instead of billed queues polled
// by listeners and a history table written per episode, events are
// appended to a commit log whose writes are batched — group commits
// amortize one storage round trip over every event that arrived in the
// same commit window — and execution is speculative: episodes run
// against uncommitted state and are deterministically aborted and
// replayed if a crash loses an uncommitted batch.
//
// The store keeps one log. Netherite shards its log across partitions,
// but commit windows are hub-wide (one group commit per window, modeling
// the shared storage-account batch ingress) and delivery latency is the
// same for every partition, so partitioning would shard accounting only:
// it changes neither when anything happens nor what anything costs.
//
// Determinism contract (the property the tier-2 gate enforces): the
// store draws NOTHING from the kernel's RNG streams and all latencies
// are fixed constants, and chaos decisions key on instance and
// orchestrator names, so results are byte-identical for a given seed.
package netherite

import (
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/chaos"
	"statebench/internal/obs/span"
	"statebench/internal/sim"
)

// Fixed latency model. No RNG: every constant below is exact.
const (
	// CommitInterval is the group-commit cadence: appends accumulated in
	// one window become durable together at the window boundary.
	CommitInterval = 20 * time.Millisecond
	// AppendRTT is the storage round trip of one group commit — paid
	// once per non-empty window, not once per event.
	AppendRTT = 2 * time.Millisecond
	// DeliverLatency is the intra-hub push delivery time of one
	// envelope (EventHubs-style transport, no polling).
	DeliverLatency = 1 * time.Millisecond
	// SubmitLatency is the send cost charged to a client process.
	SubmitLatency = 200 * time.Microsecond
	// StateAccessLatency is the in-memory (cached) entity state and
	// history access cost.
	StateAccessLatency = 100 * time.Microsecond
)

// Store implements durable.Store as a group-committed, speculative
// commit log.
type Store struct {
	k    *sim.Kernel
	name string
	hub  *durable.Hub

	// nextSeq stamps outbound envelopes for exactly-once delivery.
	nextSeq int64
	// applied records delivered sequence numbers: a redelivered ghost
	// with a seen seq is dropped, which is why Netherite needs no
	// MaxDequeueCount/poison-message carve-out.
	applied map[int64]bool

	// hist and entState are the speculative materialized state: reads
	// see appended-but-uncommitted records, which is what lets episodes
	// progress ahead of durability.
	hist     map[string][]durable.Record
	entState map[string][]byte

	// Hub-wide commit-window accounting.
	lastWindow int64 // last window index with a billed group commit
	txns       int64 // billed storage transactions (group commits)
	appended   int64 // committed log records
	lost       int64 // records discarded by lost batches
	droppedDup int64 // ghost deliveries dropped by seq dedup

	tracer *span.Tracer
	chaos  *chaos.Injector
}

// NewStore builds a Netherite store. Pass it to
// durable.NewHubWithStore.
func NewStore(k *sim.Kernel, name string) *Store {
	return &Store{
		k:        k,
		name:     name,
		applied:  make(map[int64]bool),
		hist:     make(map[string][]durable.Record),
		entState: make(map[string][]byte),
	}
}

// Start implements durable.Store. Delivery is push-based: no listener
// processes, no polling transactions.
func (s *Store) Start(h *durable.Hub) { s.hub = h }

// SendControl implements durable.Store: push the envelope after the
// fixed transport latency.
func (s *Store) SendControl(m durable.Envelope) error {
	s.transport(m, false)
	return nil
}

// SendControlFromProc implements durable.Store, charging the submit
// cost to the sending process.
func (s *Store) SendControlFromProc(p *sim.Proc, m durable.Envelope) error {
	p.Sleep(SubmitLatency)
	s.transport(m, false)
	return nil
}

// SendWork implements durable.Store: activity work items ride the same
// transport.
func (s *Store) SendWork(m durable.Envelope) error {
	s.transport(m, true)
	return nil
}

// transport stamps the envelope with a sequence number and schedules
// delivery. Chaos can inject a duplicate ghost: the same envelope, same
// seq, redelivered after the visibility window — the dedup table drops
// it on arrival. Fault decisions key on the instance name.
func (s *Store) transport(m durable.Envelope, work bool) {
	seq := s.nextSeq
	s.nextSeq++
	start := s.k.Now()
	s.deliver(DeliverLatency, seq, m, work, start)
	if s.chaos != nil {
		if flt, ok := s.chaos.Next(m.TraceCtx(), "netherite-transport", m.Instance); ok && flt.Kind == chaos.Duplicate {
			s.deliver(DeliverLatency+s.chaos.RedeliveryDelay(), seq, m, work, start)
		}
	}
}

// deliver routes one (possibly duplicate) envelope copy into the hub
// after delay, dropping it if its sequence number was already applied.
func (s *Store) deliver(delay time.Duration, seq int64, m durable.Envelope, work bool, start sim.Time) {
	s.k.After(delay, func() {
		if s.applied[seq] {
			s.droppedDup++
			return
		}
		s.applied[seq] = true
		if s.tracer.Enabled() {
			s.tracer.Emit(span.KindHop, "netherite/"+s.name, start, s.k.Now(), m.TraceCtx())
		}
		if work {
			s.hub.DeliverWork(m)
		} else {
			s.hub.DeliverControl(m)
		}
	})
}

// LoadHistory implements durable.Store: an in-memory cache read —
// speculative records included — at fixed cost.
func (s *Store) LoadHistory(p *sim.Proc, instance string) []durable.Record {
	p.Sleep(StateAccessLatency)
	recs := s.hist[instance]
	out := make([]durable.Record, len(recs))
	copy(out, recs)
	return out
}

// CommitEpisode implements durable.Store. The episode's new records
// are appended to the log and become immediately visible to
// subsequent episodes (speculation); durability arrives at the next
// global commit-window boundary plus one append round trip, which is
// the settle delay the hub applies to client-visible completion. One
// group commit is billed per non-empty window hub-wide.
//
// Chaos injects the two crash windows at the commit point. A Crash
// loses the uncommitted batch — the just-appended records are rolled
// back, counted as wasted speculative work, and the hub aborts and
// replays the episode from durable state. A CrashAfterPersist crashes
// the store after the batch committed; because the commit log
// integrates state AND message cursors, the triggering messages were
// acknowledged atomically with the batch, so nothing redelivers — the
// crash costs one rehydration delay on the settle path
// instead of the classic hub's redeliver-and-deduplicate replay. That
// asymmetry is the design point the dead-letter audit pins down:
// exactly-once falls out of the log, not out of visibility-timeout or
// poison-message machinery.
func (s *Store) CommitEpisode(p *sim.Proc, instance, orchestrator string, tctx sim.TraceContext, recs []durable.Record) (durable.CommitVerdict, time.Duration) {
	if len(recs) == 0 {
		return durable.CommitOK, 0
	}
	if s.chaos != nil {
		if flt, ok := s.chaos.Next(tctx, "netherite", orchestrator); ok {
			switch flt.Kind {
			case chaos.Crash:
				s.lost += int64(len(recs))
				s.chaos.NoteWastedWork(len(recs))
				return durable.CommitLost, 0
			case chaos.CrashAfterPersist:
				s.append(instance, recs)
				// The store is down until it rehydrates from the
				// committed log; the episode's worker stalls with it, so
				// the delay propagates to every downstream dispatch.
				rehydrate := s.chaos.RedeliveryDelay()
				s.chaos.NoteRecovery(rehydrate)
				p.Sleep(rehydrate)
				_, settle := s.commitWindow(p.Now())
				return durable.CommitOK, settle
			}
		}
	}
	s.append(instance, recs)
	_, settle := s.commitWindow(p.Now())
	return durable.CommitOK, settle
}

// append materializes recs into the speculative history and the log.
func (s *Store) append(instance string, recs []durable.Record) {
	s.hist[instance] = append(s.hist[instance], recs...)
	s.appended += int64(len(recs))
}

// commitWindow bills the group commit covering virtual time now and
// returns the window index plus the settle delay until the batch is
// durable (next global boundary + append round trip).
func (s *Store) commitWindow(now sim.Time) (int64, time.Duration) {
	window := int64(now/sim.Time(CommitInterval)) + 1
	if window != s.lastWindow {
		s.lastWindow = window
		s.txns++
	}
	boundary := sim.Time(window) * sim.Time(CommitInterval)
	return window, time.Duration(boundary-now) + AppendRTT
}

// ReadEntityState implements durable.Store: an in-memory cache read.
func (s *Store) ReadEntityState(p *sim.Proc, instance string) ([]byte, bool) {
	p.Sleep(StateAccessLatency)
	data, ok := s.entState[instance]
	return data, ok
}

// WriteEntityState implements durable.Store: the new state is one log
// record, group-committed with everything else in its window.
func (s *Store) WriteEntityState(p *sim.Proc, instance string, data []byte) {
	s.entState[instance] = data
	s.appended++
	s.commitWindow(p.Now())
}

// QueryEntityState implements durable.Store (client status query).
func (s *Store) QueryEntityState(p *sim.Proc, instance string) ([]byte, bool) {
	p.Sleep(StateAccessLatency)
	data, ok := s.entState[instance]
	return data, ok
}

// Transactions implements durable.Store: group commits billed so far —
// the order-of-magnitude reduction vs. the classic hub's per-operation
// queue and table traffic.
func (s *Store) Transactions() int64 { return s.txns }

// AppendedRecords returns committed log records.
func (s *Store) AppendedRecords() int64 { return s.appended }

// LostRecords returns speculative records discarded by lost batches.
func (s *Store) LostRecords() int64 { return s.lost }

// DroppedDuplicates returns ghost deliveries dropped by seq dedup —
// the mechanism that replaces the classic queues' visibility-timeout/
// MaxDequeueCount machinery.
func (s *Store) DroppedDuplicates() int64 { return s.droppedDup }

// History returns a copy of the materialized history for instance —
// an inspection seam for tests proving abort+replay converges on the
// same record sequence a fault-free run produces.
func (s *Store) History(instance string) []durable.Record {
	recs := s.hist[instance]
	out := make([]durable.Record, len(recs))
	copy(out, recs)
	return out
}

// SetTracer implements durable.Store: transport hops emit hop spans.
func (s *Store) SetTracer(tr *span.Tracer) { s.tracer = tr }

// SetChaos implements durable.Store: enables commit-batch loss and
// duplicate ghost injection.
func (s *Store) SetChaos(inj *chaos.Injector) { s.chaos = inj }
