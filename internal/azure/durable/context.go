package durable

import (
	"fmt"
	"time"
)

// histEvent is one event-sourcing history record. The full event list
// for an orchestration instance is persisted by the store and loaded
// on every episode, exactly like the Durable Task Framework.
type histEvent struct {
	Seq    int
	Kind   string
	TaskID int
	Name   string
	Data   []byte
	Error  string
}

// History event kinds.
const (
	evExecutionStarted   = "ExecutionStarted"
	evTaskScheduled      = "TaskScheduled"
	evTaskCompleted      = "TaskCompleted"
	evTaskFailed         = "TaskFailed"
	evTimerCreated       = "TimerCreated"
	evTimerFired         = "TimerFired"
	evEntityCalled       = "EntityCalled"
	evEntityResponded    = "EntityResponded"
	evSubOrchCreated     = "SubOrchCreated"
	evSubOrchCompleted   = "SubOrchCompleted"
	evSubOrchFailed      = "SubOrchFailed"
	evExecutionCompleted = "ExecutionCompleted"
	evExecutionFailed    = "ExecutionFailed"
	evEventWaited        = "EventWaited"
	evEventRaised        = "EventRaised"
)

// pendingSentinel is panicked by awaits on incomplete tasks: it ends the
// episode so the orchestrator is unloaded until new results arrive —
// the replay execution model.
type pendingSentinel struct{}

// orchFailure wraps a user-visible orchestration failure raised from
// inside context calls (payload limits, nondeterminism).
type orchFailure struct{ err error }

// EntityID addresses a durable entity instance (class name + key).
type EntityID struct {
	Name string
	Key  string
}

// instanceID returns the task-hub instance string for the entity.
func (e EntityID) instanceID() string { return "@" + e.Name + "@" + e.Key }

// String implements fmt.Stringer.
func (e EntityID) String() string { return e.instanceID() }

// actionKind enumerates side effects recorded during an episode.
type actionKind int

const (
	actActivity actionKind = iota
	actTimer
	actEntity
	actSubOrch
	actEventWait
)

// action is one side effect to perform after the episode persists.
type action struct {
	kind   actionKind
	taskID int
	name   string
	op     string
	input  []byte
	entity EntityID
	delay  time.Duration
}

// Task is a durable task handle (activity call, entity call, timer, or
// sub-orchestration) created by an OrchestrationContext.
type Task struct {
	ctx *OrchestrationContext
	id  int
}

// Await returns the task's result. If the result has not arrived yet,
// the episode ends (the orchestrator unloads) and the function will be
// replayed when it does — callers just see Await return on a later
// replay. A replayed result is the stored history record's Data,
// shared by every later replay: read it, never write into it.
func (t *Task) Await() ([]byte, error) {
	if ev, ok := t.ctx.results[t.id]; ok {
		if ev.Error != "" {
			return nil, fmt.Errorf("durable: task %d (%s): %s", t.id, ev.Name, ev.Error)
		}
		return ev.Data, nil
	}
	panic(pendingSentinel{})
}

// OrchestrationContext is the API surface available to orchestrator
// functions. All scheduling goes through it so that replays are
// deterministic. Results and inputs replayed from history (Await,
// WaitAll, the orchestrator's input) share their bytes with the store
// and with every later replay, so they are read-only.
type OrchestrationContext struct {
	hub *Hub

	input     []byte
	counter   int
	scheduled map[int]histEvent // by task ID, from history or this episode
	results   map[int]histEvent // completions by task ID
	actions   []action
	// raisedPool holds external events not yet claimed by a waiter,
	// queued per name in arrival order.
	raisedPool map[string][]histEvent
}

// newOrchContext builds an episode's context from its event list: the
// persisted history, then the events folded from this episode's
// arrived messages.
func newOrchContext(h *Hub, history, arrived []histEvent) *OrchestrationContext {
	// Every result in the history follows its task's schedule, so each
	// map holds about half of the events.
	n := (len(history) + len(arrived)) / 2
	ctx := &OrchestrationContext{
		hub:       h,
		scheduled: make(map[int]histEvent, n),
		results:   make(map[int]histEvent, n),
	}
	// External events are matched by NAME in arrival order: raised
	// events queue up per name and waiter tasks claim them in creation
	// order, exactly like the Durable Task Framework's buffered events.
	ctx.raisedPool = map[string][]histEvent{}
	raised := ctx.raisedPool
	var waiters []histEvent
	for _, events := range [2][]histEvent{history, arrived} {
		for _, ev := range events {
			switch ev.Kind {
			case evExecutionStarted:
				ctx.input = ev.Data
			case evTaskScheduled, evTimerCreated, evEntityCalled, evSubOrchCreated:
				ctx.scheduled[ev.TaskID] = ev
			case evEventWaited:
				ctx.scheduled[ev.TaskID] = ev
				waiters = append(waiters, ev)
			case evEventRaised:
				raised[ev.Name] = append(raised[ev.Name], ev)
			case evTaskCompleted, evTaskFailed, evTimerFired, evEntityResponded, evSubOrchCompleted, evSubOrchFailed:
				ctx.results[ev.TaskID] = ev
			}
		}
	}
	for _, w := range waiters {
		if q := raised[w.Name]; len(q) > 0 {
			ev := q[0]
			raised[w.Name] = q[1:]
			ctx.results[w.TaskID] = histEvent{Kind: evEventRaised, TaskID: w.TaskID, Name: w.Name, Data: ev.Data}
		}
	}
	return ctx
}

// fail aborts the orchestration with err (recovered by the episode
// runner and recorded as ExecutionFailed).
func (c *OrchestrationContext) fail(err error) {
	panic(orchFailure{err: err})
}

// nextID allocates the deterministic task sequence number and checks
// replay consistency against history.
func (c *OrchestrationContext) nextID(kind, name string) (int, bool) {
	id := c.counter
	c.counter++
	if ev, ok := c.scheduled[id]; ok {
		if ev.Kind != kind || ev.Name != name {
			c.fail(fmt.Errorf("durable: non-deterministic orchestrator: history has %s(%s) at %d, code asked %s(%s)",
				ev.Kind, ev.Name, id, kind, name))
		}
		return id, true
	}
	return id, false
}

// checkPayload enforces the durable 64 KB cross-function payload limit.
func (c *OrchestrationContext) checkPayload(what string, size int) {
	if limit := c.hub.params.DurablePayloadLimit; limit > 0 && size > limit {
		c.fail(&PayloadTooLargeError{What: what, Size: size, Limit: limit})
	}
}

// CallActivity schedules a stateless activity and returns its task.
func (c *OrchestrationContext) CallActivity(name string, input []byte) *Task {
	c.checkPayload("activity "+name+" input", len(input))
	id, inHistory := c.nextID(evTaskScheduled, name)
	if !inHistory {
		ev := histEvent{Kind: evTaskScheduled, TaskID: id, Name: name, Data: input}
		c.scheduled[id] = ev
		c.actions = append(c.actions, action{kind: actActivity, taskID: id, name: name, input: input})
	}
	return &Task{ctx: c, id: id}
}

// CallEntity schedules a two-way entity operation and returns its task.
func (c *OrchestrationContext) CallEntity(entity EntityID, op string, input []byte) *Task {
	c.checkPayload("entity "+entity.String()+" op "+op, len(input))
	id, inHistory := c.nextID(evEntityCalled, entity.instanceID())
	if !inHistory {
		ev := histEvent{Kind: evEntityCalled, TaskID: id, Name: entity.instanceID(), Data: input}
		c.scheduled[id] = ev
		c.actions = append(c.actions, action{kind: actEntity, taskID: id, entity: entity, op: op, input: input})
	}
	return &Task{ctx: c, id: id}
}

// CallSubOrchestrator starts a child orchestration and returns its task.
func (c *OrchestrationContext) CallSubOrchestrator(name string, input []byte) *Task {
	c.checkPayload("sub-orchestration "+name+" input", len(input))
	id, inHistory := c.nextID(evSubOrchCreated, name)
	if !inHistory {
		ev := histEvent{Kind: evSubOrchCreated, TaskID: id, Name: name, Data: input}
		c.scheduled[id] = ev
		c.actions = append(c.actions, action{kind: actSubOrch, taskID: id, name: name, input: input})
	}
	return &Task{ctx: c, id: id}
}

// CreateTimer schedules a durable timer that fires after d.
func (c *OrchestrationContext) CreateTimer(d time.Duration) *Task {
	id, inHistory := c.nextID(evTimerCreated, "")
	if !inHistory {
		ev := histEvent{Kind: evTimerCreated, TaskID: id}
		c.scheduled[id] = ev
		c.actions = append(c.actions, action{kind: actTimer, taskID: id, delay: d})
	}
	return &Task{ctx: c, id: id}
}

// WaitForExternalEvent returns a task that completes when the named
// event is raised on this instance (via Client.RaiseEvent) — the
// human-interaction / callback pattern. Events raised before the wait
// are buffered and matched by name in arrival order.
func (c *OrchestrationContext) WaitForExternalEvent(name string) *Task {
	id, inHistory := c.nextID(evEventWaited, name)
	if !inHistory {
		ev := histEvent{Kind: evEventWaited, TaskID: id, Name: name}
		c.scheduled[id] = ev
		c.actions = append(c.actions, action{kind: actEventWait, taskID: id, name: name})
	}
	// Claim a buffered event (raised before this wait was declared).
	if _, done := c.results[id]; !done {
		if q := c.raisedPool[name]; len(q) > 0 {
			ev := q[0]
			c.raisedPool[name] = q[1:]
			c.results[id] = histEvent{Kind: evEventRaised, TaskID: id, Name: name, Data: ev.Data}
		}
	}
	return &Task{ctx: c, id: id}
}

// WaitAll awaits every task (fan-in barrier) and returns their payloads
// in order. If any is incomplete the episode ends and resumes on replay.
// The first task error (by position) is returned after all complete.
func (c *OrchestrationContext) WaitAll(tasks ...*Task) ([][]byte, error) {
	for _, t := range tasks {
		if _, ok := c.results[t.id]; !ok {
			panic(pendingSentinel{})
		}
	}
	out := make([][]byte, len(tasks))
	var firstErr error
	for i, t := range tasks {
		ev := c.results[t.id]
		if ev.Error != "" && firstErr == nil {
			firstErr = fmt.Errorf("durable: task %d (%s): %s", t.id, ev.Name, ev.Error)
		}
		out[i] = ev.Data
	}
	return out, firstErr
}

// WaitAny returns the index of a completed task, unloading until at
// least one completes.
func (c *OrchestrationContext) WaitAny(tasks ...*Task) int {
	for i, t := range tasks {
		if _, ok := c.results[t.id]; ok {
			return i
		}
	}
	panic(pendingSentinel{})
}
