package optimizer

import (
	"statebench/internal/core"
	"statebench/internal/payload"
)

// Memo is the sweep's config-level delta-evaluation store: a thin
// typed view over a payload engine that memoizes whole measurement
// campaigns by canonical configuration signature. Two candidates with
// equal signatures are indistinguishable to the simulator (see
// signature), so the first to arrive runs the campaign and the rest —
// including candidates racing on other workers, via the engine's
// single-flight machinery — share its Series.
//
// Because the store is the payload engine itself, a memoized campaign
// survives exactly as long as the engine: a per-Sweep engine gives
// within-sweep delta evaluation, while a long-lived engine (the
// serve-mode what-if path) lets successive sweeps over overlapping
// spaces skip re-measuring unchanged configurations.
type Memo struct {
	eng *payload.Engine
}

// NewMemo returns a memo backed by eng. A nil or disabled engine
// yields a pass-through memo: every Series call measures.
func NewMemo(eng *payload.Engine) *Memo { return &Memo{eng: eng} }

// Series returns the campaign for signature sig, measuring it with
// measure on first touch. The memoized Series is shared by reference
// and must be treated as immutable. Entries are recorded with size 0:
// a Series is harness bookkeeping, not workload payload, so it must
// not distort the engine's byte accounting.
func (m *Memo) Series(sig string, measure func() (*core.Series, error)) (*core.Series, error) {
	if m == nil || !m.eng.Enabled() {
		return measure()
	}
	key := payload.Key{
		Workload: "optimizer",
		Stage:    "eval",
		Input:    payload.DigestString(sig),
	}
	s, _, err := payload.Get(m.eng, key, func() (*core.Series, int, error) {
		s, err := measure()
		if err == nil {
			// Sort before sharing: a lazy in-place sort under concurrent
			// quantile reads would be a data race.
			s.E2E.Sort()
			s.Cold.Sort()
		}
		return s, 0, err
	})
	return s, err
}
