package sfn

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"statebench/internal/cloud/faas"
)

// flakyLambda fails the first n invocations, then succeeds.
func regFlaky(lsvc *faas.Service, name string, failures int) *int {
	calls := 0
	lsvc.MustRegister(faas.Config{Name: name, MemoryMB: 128, Handler: func(ctx *faas.Context, payload []byte) ([]byte, error) {
		calls++
		ctx.Busy(10 * time.Millisecond)
		if calls <= failures {
			return nil, fmt.Errorf("transient %d", calls)
		}
		return []byte(`"recovered"`), nil
	}})
	return &calls
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	k, lsvc, s := fixture()
	calls := regFlaky(lsvc, "flaky", 2)
	sm := &StateMachine{StartAt: "A", States: map[string]*State{
		"A": {Type: TypeTask, Resource: "flaky", End: true,
			Retry: []RetryPolicy{{ErrorEquals: []string{"States.ALL"}, IntervalSeconds: 1, MaxAttempts: 3, BackoffRate: 2}}},
	}}
	if err := s.CreateStateMachine("m", sm); err != nil {
		t.Fatal(err)
	}
	exec, _ := run(k, s, "m", nil)
	if exec.Err != nil {
		t.Fatalf("execution failed: %v", exec.Err)
	}
	if *calls != 3 {
		t.Fatalf("calls = %d, want 3", *calls)
	}
	if exec.Output != "recovered" {
		t.Fatalf("output = %v", exec.Output)
	}
	// Backoff: 1s + 2s between attempts.
	if exec.Duration() < 3*time.Second {
		t.Fatalf("duration %v missing backoff delays", exec.Duration())
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	k, lsvc, s := fixture()
	calls := regFlaky(lsvc, "alwaysFail", 100)
	sm := &StateMachine{StartAt: "A", States: map[string]*State{
		"A": {Type: TypeTask, Resource: "alwaysFail", End: true,
			Retry: []RetryPolicy{{ErrorEquals: []string{"States.TaskFailed"}, MaxAttempts: 2}}},
	}}
	if err := s.CreateStateMachine("m", sm); err != nil {
		t.Fatal(err)
	}
	exec, _ := run(k, s, "m", nil)
	if exec.Err == nil {
		t.Fatal("exhausted retries did not fail")
	}
	// Initial + 2 retries.
	if *calls != 3 {
		t.Fatalf("calls = %d, want 3", *calls)
	}
}

func TestRetryUnmatchedErrorSkipsRetry(t *testing.T) {
	k, lsvc, s := fixture()
	calls := regFlaky(lsvc, "f", 100)
	sm := &StateMachine{StartAt: "A", States: map[string]*State{
		"A": {Type: TypeTask, Resource: "f", End: true,
			Retry: []RetryPolicy{{ErrorEquals: []string{"SomeOther.Error"}}}},
	}}
	if err := s.CreateStateMachine("m", sm); err != nil {
		t.Fatal(err)
	}
	exec, _ := run(k, s, "m", nil)
	if exec.Err == nil || *calls != 1 {
		t.Fatalf("err=%v calls=%d, want immediate failure", exec.Err, *calls)
	}
}

func TestCatchRoutesToRecoveryState(t *testing.T) {
	k, lsvc, s := fixture()
	regFlaky(lsvc, "boom", 100)
	sm := &StateMachine{StartAt: "A", States: map[string]*State{
		"A": {Type: TypeTask, Resource: "boom", End: true,
			Catch: []Catcher{{ErrorEquals: []string{"States.ALL"}, ResultPath: "$.error", Next: "Recover"}}},
		"Recover": {Type: TypePass, End: true},
	}}
	if err := s.CreateStateMachine("m", sm); err != nil {
		t.Fatal(err)
	}
	exec, _ := run(k, s, "m", map[string]any{"keep": "me"})
	if exec.Err != nil {
		t.Fatalf("catch did not recover: %v", exec.Err)
	}
	out := exec.Output.(map[string]any)
	if out["keep"] != "me" {
		t.Fatalf("catch lost original input: %v", out)
	}
	info := out["error"].(map[string]any)
	if info["Error"] != "States.TaskFailed" {
		t.Fatalf("error info = %v", info)
	}
}

func TestRetryThenCatch(t *testing.T) {
	k, lsvc, s := fixture()
	calls := regFlaky(lsvc, "f", 100)
	sm := &StateMachine{StartAt: "A", States: map[string]*State{
		"A": {Type: TypeTask, Resource: "f", End: true,
			Retry: []RetryPolicy{{ErrorEquals: []string{"States.ALL"}, MaxAttempts: 1, IntervalSeconds: 1}},
			Catch: []Catcher{{ErrorEquals: []string{"States.ALL"}, Next: "Fallback"}}},
		"Fallback": {Type: TypePass, Result: "fallback", End: true},
	}}
	if err := s.CreateStateMachine("m", sm); err != nil {
		t.Fatal(err)
	}
	exec, _ := run(k, s, "m", nil)
	if exec.Err != nil || exec.Output != "fallback" {
		t.Fatalf("out=%v err=%v", exec.Output, exec.Err)
	}
	if *calls != 2 {
		t.Fatalf("calls = %d, want 2 (original + 1 retry)", *calls)
	}
}

func TestCatchOnFailStateDoesNotApply(t *testing.T) {
	// Fail states terminate; Catch belongs to Task/Map/Parallel.
	k, _, s := fixture()
	sm := &StateMachine{StartAt: "F", States: map[string]*State{
		"F": {Type: TypeFail, Error: "E", Cause: "c"},
	}}
	if err := s.CreateStateMachine("m", sm); err != nil {
		t.Fatal(err)
	}
	exec, _ := run(k, s, "m", nil)
	var ee *ExecutionError
	if !errors.As(exec.Err, &ee) {
		t.Fatalf("err = %v", exec.Err)
	}
}

func TestValidateCatchTargets(t *testing.T) {
	sm := &StateMachine{StartAt: "A", States: map[string]*State{
		"A": {Type: TypeTask, Resource: "f", End: true,
			Catch: []Catcher{{ErrorEquals: []string{"States.ALL"}, Next: "ghost"}}},
	}}
	if err := sm.Validate(); err == nil {
		t.Fatal("dangling catch target validated")
	}
	sm2 := &StateMachine{StartAt: "A", States: map[string]*State{
		"A": {Type: TypeTask, Resource: "f", End: true,
			Retry: []RetryPolicy{{}}},
	}}
	if err := sm2.Validate(); err == nil {
		t.Fatal("retrier without ErrorEquals validated")
	}
}

func TestMatchesError(t *testing.T) {
	if !matchesError([]string{"States.ALL"}, "Anything") {
		t.Fatal("States.ALL should match")
	}
	if !matchesError([]string{"A", "B"}, "B") {
		t.Fatal("exact match failed")
	}
	if matchesError([]string{"A"}, "B") {
		t.Fatal("mismatch matched")
	}
}
