package durable

import (
	"fmt"
	"time"

	"statebench/internal/azure/functions"
	"statebench/internal/obs/span"
	"statebench/internal/sim"
)

// EntityContext is the API surface available to entity operation
// handlers. State is a byte payload (typically JSON or gob) persisted
// in the instances table between operation batches.
type EntityContext struct {
	fctx   *functions.Context
	state  []byte
	exists bool
	dirty  bool
}

// Proc returns the simulation process executing this operation.
func (c *EntityContext) Proc() *sim.Proc { return c.fctx.Proc() }

// Busy consumes d of virtual compute time.
func (c *EntityContext) Busy(d time.Duration) { c.fctx.Busy(d) }

// HasState reports whether the entity has been initialized.
func (c *EntityContext) HasState() bool { return c.exists }

// State returns the entity's current state payload (nil if unset).
func (c *EntityContext) State() []byte { return c.state }

// SetState replaces the entity's state payload; it is persisted when
// the operation batch finishes.
func (c *EntityContext) SetState(s []byte) {
	c.state = s
	c.exists = true
	c.dirty = true
}

// handleEntityMessage queues an operation on the target entity and
// activates its executor. Operations on one entity key are strictly
// serialized — the property that makes entities a bottleneck for
// high-throughput read paths (paper §IV).
func (h *Hub) handleEntityMessage(m message) {
	name, ok := entityClass(m.Instance)
	if !ok {
		return
	}
	if _, known := h.entities[name]; !known {
		if !m.Signal {
			_ = h.send(message{Kind: kindEntityResponse, Instance: m.Caller, TaskID: m.CallerTask,
				Error: fmt.Sprintf("unknown entity class %q", name)})
		}
		return
	}
	est, found := h.ents[m.Instance]
	if !found {
		est = &entityState{id: m.Instance, name: name}
		h.ents[m.Instance] = est
	}
	est.inbox = append(est.inbox, m)
	h.activateEntity(est)
}

// activateEntity queues an executor batch if none is in flight. The
// batch's spans parent to the first queued operation's context.
func (h *Hub) activateEntity(est *entityState) {
	if est.active {
		return
	}
	est.active = true
	var ctx sim.TraceContext
	if len(est.inbox) > 0 {
		ctx = est.inbox[0].traceCtx()
	}
	if _, err := h.host.SubmitCtx("entity:"+est.name, []byte(est.id), ctx); err != nil {
		est.active = false
	}
}

// entityEpisodeHandler returns the host-function body that executes one
// batch of serialized operations on an entity instance: load state,
// apply operations in arrival order, respond to two-way callers,
// persist state.
func (h *Hub) entityEpisodeHandler(name string) functions.Handler {
	return func(fctx *functions.Context, payload []byte) ([]byte, error) {
		id := string(payload)
		est, ok := h.ents[id]
		if !ok {
			return nil, fmt.Errorf("durable: unknown entity instance %q", id)
		}
		ops := est.inbox
		est.inbox = nil
		if len(ops) == 0 {
			est.active = false
			return nil, nil
		}
		p := fctx.Proc()
		fn := h.entities[name]

		// Rehydrate state (store-specific read cost + access latency).
		stateRow, exists := h.store.ReadEntityState(p, id)

		ectx := &EntityContext{fctx: fctx, state: stateRow, exists: exists}
		for _, m := range ops {
			// Entity operations carry serialization/rehydration overhead
			// compared to plain activities (paper: entity ops ~8% slower).
			opStart := p.Now()
			p.Sleep(h.params.EntityOpOverhead.Sample(h.rng))
			out, err := fn(ectx, m.Op, m.Input)
			h.Tracer.Emit(span.KindEntityOp, "entity/"+est.name+"."+m.Op, opStart, p.Now(), m.traceCtx())
			if m.Signal {
				continue
			}
			errStr := ""
			if err != nil {
				errStr = err.Error()
				out = nil
			} else if limit := h.params.DurablePayloadLimit; limit > 0 && len(out) > limit {
				errStr = (&PayloadTooLargeError{What: "entity " + id + " op " + m.Op + " result", Size: len(out), Limit: limit}).Error()
				out = nil
			}
			if sendErr := h.sendFromProc(p, stamped(message{
				Kind: kindEntityResponse, Instance: m.Caller, TaskID: m.CallerTask, Result: out, Error: errStr,
			}, m.traceCtx())); sendErr != nil {
				return nil, sendErr
			}
		}

		// Persist state if modified.
		if ectx.dirty {
			h.store.WriteEntityState(p, id, ectx.state)
		}

		if len(est.inbox) > 0 {
			if _, err := h.host.SubmitCtx("entity:"+est.name, []byte(est.id), est.inbox[0].traceCtx()); err != nil {
				est.active = false
			}
			return nil, nil
		}
		est.active = false
		return nil, nil
	}
}

// entityClass parses the class name out of "@Name@key".
func entityClass(id string) (name string, ok bool) {
	if len(id) < 3 || id[0] != '@' {
		return "", false
	}
	for i := 1; i < len(id); i++ {
		if id[i] == '@' {
			return id[1:i], true
		}
	}
	return "", false
}
