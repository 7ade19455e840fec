package durable

import (
	"fmt"
	"strconv"
	"time"

	"statebench/internal/azure/functions"
	"statebench/internal/chaos"
	"statebench/internal/obs/span"
	"statebench/internal/sim"
)

// This file implements orchestration episodes: each time messages
// arrive for an instance, the orchestrator function is executed *from
// the beginning* on a host instance, consulting the history store to
// skip completed work (replay). Awaiting an incomplete task ends the
// episode — the orchestrator is unloaded until results arrive.

// activateOrch queues an episode for instance st if none is in flight.
func (h *Hub) activateOrch(st *orchState) {
	if st.active || st.done {
		return
	}
	st.active = true
	if _, err := h.host.SubmitCtx(st.name, []byte(st.id), st.tctx); err != nil {
		st.active = false
	}
}

// handleControlMessage routes one control-queue message, activating the
// target orchestration or entity.
func (h *Hub) handleControlMessage(m message) {
	if len(m.Instance) > 0 && m.Instance[0] == '@' {
		h.handleEntityMessage(m)
		return
	}
	st, ok := h.orchs[m.Instance]
	if !ok || st.done {
		return // late message for a finished/unknown instance
	}
	st.inbox = append(st.inbox, m)
	h.activateOrch(st)
}

// handleWorkItem executes one activity work item on the function app
// and posts the completion back to the orchestration's control queue.
func (h *Hub) handleWorkItem(m message) {
	fnName, ok := h.activities[m.Name]
	if !ok {
		_ = h.send(message{Kind: kindTaskFailed, Instance: m.Instance, TaskID: m.TaskID, Name: m.Name,
			Error: fmt.Sprintf("unknown activity %q", m.Name)})
		return
	}
	mctx := m.traceCtx()
	fut, err := h.host.SubmitCtx(fnName, m.Input, mctx)
	if err != nil {
		_ = h.send(stamped(message{Kind: kindTaskFailed, Instance: m.Instance, TaskID: m.TaskID, Name: m.Name, Error: err.Error()}, mctx))
		return
	}
	inst, taskID, name := m.Instance, m.TaskID, m.Name
	fut.OnComplete(func(res functions.Result, _ error) {
		if res.Err != nil {
			_ = h.send(stamped(message{Kind: kindTaskFailed, Instance: inst, TaskID: taskID, Name: name, Error: res.Err.Error()}, mctx))
			return
		}
		if limit := h.params.DurablePayloadLimit; limit > 0 && len(res.Output) > limit {
			_ = h.send(stamped(message{Kind: kindTaskFailed, Instance: inst, TaskID: taskID, Name: name,
				Error: (&PayloadTooLargeError{What: "activity " + name + " result", Size: len(res.Output), Limit: limit}).Error()}, mctx))
			return
		}
		_ = h.send(stamped(message{Kind: kindTaskCompleted, Instance: inst, TaskID: taskID, Name: name, Result: res.Output}, mctx))
	})
}

// episodeHandler returns the host-function body that runs orchestration
// episodes for orchestrator name. The episode's execution time (history
// load, replay CPU, persistence) is billed as a normal function
// execution — the source of the durable GB-s inflation in Fig 11a.
func (h *Hub) episodeHandler(name string) functions.Handler {
	return func(fctx *functions.Context, payload []byte) ([]byte, error) {
		instance := string(payload)
		st, ok := h.orchs[instance]
		if !ok {
			return nil, fmt.Errorf("durable: unknown instance %q", instance)
		}
		p := fctx.Proc()

		msgs := st.inbox
		st.inbox = nil
		if len(msgs) == 0 || st.done {
			st.active = false
			return nil, nil
		}
		h.EpisodeCount++

		// The episode span (replay + user code) closes on every exit
		// path; replayed is set once the history has been loaded.
		epStart := p.Now()
		replayed := 0
		defer func() {
			if h.Tracer != nil {
				h.Tracer.Emit(span.KindEpisode, "durable/episode/"+name, epStart, p.Now(), st.tctx,
					span.A("replayEvents", strconv.Itoa(replayed)))
			}
		}()

		// One fault decision per episode. A plain Crash kills the host
		// before any history is persisted; CrashAfterPersist arms a
		// crash between persistence and message acknowledgment (the
		// window that forces replay to deduplicate history rows).
		crashAfter := false
		if h.Chaos != nil {
			if flt, ok := h.Chaos.Next(st.tctx, "durable", name); ok {
				if flt.Kind == chaos.CrashAfterPersist {
					crashAfter = true
				} else {
					// The consumed control messages were never
					// acknowledged: put them back and redeliver the
					// episode after the visibility timeout.
					p.Sleep(flt.Delay)
					st.inbox = append(msgs, st.inbox...)
					h.redeliverEpisode(st)
					return nil, &chaos.FaultError{Kind: flt.Kind, Component: "durable", Name: name}
				}
			}
		}

		// 1. Load persisted history (a billed table query per episode on
		// the classic store; an in-memory read on Netherite).
		history := h.store.LoadHistory(p, instance)
		h.ReplayEvents += int64(len(history))
		replayed = len(history)

		// 2. Fold arrived messages into new history events, numbered on
		// from the persisted ones.
		var newEvents []histEvent
		addEvent := func(ev histEvent) {
			ev.Seq = len(history) + len(newEvents)
			newEvents = append(newEvents, ev)
		}
		for _, m := range msgs {
			switch m.Kind {
			case kindExecutionStarted:
				addEvent(histEvent{Kind: evExecutionStarted, Data: m.Input})
				st.handle.markRunning(p.Now())
			case kindTaskCompleted:
				addEvent(histEvent{Kind: evTaskCompleted, TaskID: m.TaskID, Name: m.Name, Data: m.Result})
			case kindTaskFailed:
				addEvent(histEvent{Kind: evTaskFailed, TaskID: m.TaskID, Name: m.Name, Error: m.Error})
			case kindTimerFired:
				addEvent(histEvent{Kind: evTimerFired, TaskID: m.TaskID})
			case kindEntityResponse:
				addEvent(histEvent{Kind: evEntityResponded, TaskID: m.TaskID, Error: m.Error, Data: m.Result})
			case kindSubOrchCompleted:
				addEvent(histEvent{Kind: evSubOrchCompleted, TaskID: m.TaskID, Name: m.Name, Data: m.Result})
			case kindSubOrchFailed:
				addEvent(histEvent{Kind: evSubOrchFailed, TaskID: m.TaskID, Name: m.Name, Error: m.Error})
			case kindEventRaised:
				addEvent(histEvent{Kind: evEventRaised, Name: m.Name, Data: m.Input})
			}
		}

		// 3. Replay cost: the function re-executes from the start,
		// processing the whole event list.
		p.Sleep(5*time.Millisecond + h.params.HistoryReplayPerEvent*time.Duration(len(history)+len(newEvents)))

		// 4. Run the orchestrator with replay semantics.
		octx := newOrchContext(h, history, newEvents)
		var out []byte
		var runErr error
		completed := true
		func() {
			defer func() {
				r := recover()
				switch f := r.(type) {
				case nil:
				case pendingSentinel:
					completed = false
				case orchFailure:
					runErr = f.err
				default:
					panic(r)
				}
			}()
			out, runErr = h.orchestrators[name](octx, octx.input)
		}()

		// 5. Persist this episode's new events (messages + schedules).
		for _, act := range octx.actions {
			switch act.kind {
			case actActivity:
				addEvent(histEvent{Kind: evTaskScheduled, TaskID: act.taskID, Name: act.name, Data: act.input})
			case actTimer:
				addEvent(histEvent{Kind: evTimerCreated, TaskID: act.taskID})
			case actEntity:
				addEvent(histEvent{Kind: evEntityCalled, TaskID: act.taskID, Name: act.entity.instanceID(), Data: act.input})
			case actEventWait:
				addEvent(histEvent{Kind: evEventWaited, TaskID: act.taskID, Name: act.name})
			case actSubOrch:
				addEvent(histEvent{Kind: evSubOrchCreated, TaskID: act.taskID, Name: act.name, Data: act.input})
			}
		}
		if completed {
			if runErr != nil {
				addEvent(histEvent{Kind: evExecutionFailed, Error: runErr.Error()})
			} else {
				addEvent(histEvent{Kind: evExecutionCompleted, Data: out})
			}
		}
		verdict, settle := h.store.CommitEpisode(p, instance, name, st.tctx, newEvents)
		if verdict == CommitLost {
			// A chaos-injected crash lost the uncommitted batch: every
			// speculative result of this episode is void. Nothing was
			// dispatched yet, so abort is a pure discard — re-inbox the
			// unacknowledged messages and replay from durable state.
			st.inbox = append(msgs, st.inbox...)
			h.redeliverEpisode(st)
			return nil, &chaos.FaultError{Kind: chaos.Crash, Component: "netherite", Name: name}
		}

		// 6. Execute side effects for newly scheduled work. On a
		// speculative store this happens before the batch is externally
		// durable — downstream episodes run against uncommitted state.
		for _, act := range octx.actions {
			h.dispatchAction(instance, act)
		}

		if crashAfter || verdict == CommitCrashAfter {
			// Crash after history persistence and action dispatch, but
			// before the triggering messages are acknowledged: they
			// redeliver, the episode re-runs, and replay deduplicates
			// the re-folded messages against the persisted history
			// (results and schedules are keyed by TaskID). Completion
			// bookkeeping below never ran, so the redelivered episode
			// performs it exactly once.
			st.inbox = append(msgs, st.inbox...)
			h.redeliverEpisode(st)
			return nil, &chaos.FaultError{Kind: chaos.CrashAfterPersist, Component: "durable", Name: name}
		}

		// 7. Completion or continuation.
		if completed {
			st.done = true
			st.active = false
			h.completeOrch(st, p.Now(), settle, name, out, runErr)
			return nil, nil
		}
		if len(st.inbox) > 0 {
			// New messages arrived during the episode: run again.
			if _, err := h.host.SubmitCtx(st.name, []byte(st.id), st.tctx); err != nil {
				st.active = false
			}
			return nil, nil
		}
		st.active = false
		return nil, nil
	}
}

// completeOrch performs completion bookkeeping for a finished
// orchestration. The parent notification is speculative — it flows
// immediately, so downstream orchestrations progress against
// uncommitted state — while the client-visible handle settles only
// after the store's commit becomes durable (settle is zero on the
// classic store, where WriteBatch is synchronous).
func (h *Hub) completeOrch(st *orchState, now sim.Time, settle time.Duration, name string, out []byte, runErr error) {
	if settle <= 0 {
		st.handle.complete(now, out, runErr)
	} else {
		h.k.After(settle, func() {
			st.handle.complete(h.k.Now(), out, runErr)
		})
	}
	if st.orchSpan.Live() {
		attrs := []span.Attr{}
		if runErr != nil {
			attrs = append(attrs, span.A("error", runErr.Error()))
		}
		st.orchSpan.End(now, attrs...)
	}
	if st.parent != "" {
		kind, errStr := kindSubOrchCompleted, ""
		if runErr != nil {
			kind, errStr = kindSubOrchFailed, runErr.Error()
		}
		// Completion hops route back under the parent's span.
		pctx := sim.TraceContext{}
		if pst, ok := h.orchs[st.parent]; ok {
			pctx = pst.tctx
		}
		_ = h.send(stamped(message{Kind: kind, Instance: st.parent, TaskID: st.parentTask, Name: name, Result: out, Error: errStr}, pctx))
	}
}

// redeliverEpisode re-activates a crashed episode's orchestration
// after the control-queue visibility timeout, modeling redelivery of
// its unacknowledged messages (already back in st.inbox).
func (h *Hub) redeliverEpisode(st *orchState) {
	h.k.After(h.Chaos.RedeliveryDelay(), func() {
		st.active = false
		h.activateOrch(st)
	})
}

// dispatchAction performs one scheduled side effect after an episode.
// Outbound messages carry the orchestration's trace context.
func (h *Hub) dispatchAction(instance string, act action) {
	var octx sim.TraceContext
	if st, ok := h.orchs[instance]; ok {
		octx = st.tctx
	}
	switch act.kind {
	case actActivity:
		_ = h.sendWorkItem(stamped(message{Kind: "Activity", Instance: instance, TaskID: act.taskID, Name: act.name, Input: act.input}, octx))
	case actTimer:
		taskID := act.taskID
		h.k.After(act.delay, func() {
			_ = h.send(stamped(message{Kind: kindTimerFired, Instance: instance, TaskID: taskID}, octx))
		})
	case actEntity:
		_ = h.send(stamped(message{
			Kind: kindEntityOp, Instance: act.entity.instanceID(), Op: act.op, Input: act.input,
			Caller: instance, CallerTask: act.taskID,
		}, octx))
	case actEventWait:
		// Waiting is passive: the event arrives via Client.RaiseEvent.
	case actSubOrch:
		child := h.newInstanceID(act.name)
		st := &orchState{id: child, name: act.name, parent: instance, parentTask: act.taskID,
			handle: newHandle(h, child, h.k.Now())}
		st.orchSpan = h.Tracer.Start(h.k.Now(), span.KindOrchestration, "durable/"+act.name, octx)
		st.tctx = st.orchSpan.Context()
		h.orchs[child] = st
		_ = h.send(stamped(message{Kind: kindExecutionStarted, Instance: child, Input: act.input}, st.tctx))
	}
}

// newInstanceID mints a unique orchestration instance ID.
func (h *Hub) newInstanceID(name string) string {
	h.nextInstance++
	return fmt.Sprintf("%s-%06d", name, h.nextInstance)
}
