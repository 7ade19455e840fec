// Package blob models a cloud object store (AWS S3 / Azure Blob
// analogue) inside the simulation: latency is a per-operation round-trip
// plus a size-dependent transfer term, and every operation is metered so
// storage traffic can be priced and reported.
package blob

import (
	"fmt"
	"time"

	"statebench/internal/sim"
)

// Params describes the latency model of a blob store.
type Params struct {
	// GetRTT and PutRTT are the per-operation base latencies (request
	// round-trip excluding payload transfer).
	GetRTT sim.Dist
	PutRTT sim.Dist
	// ReadBW and WriteBW are payload transfer bandwidths in bytes/sec.
	ReadBW  float64
	WriteBW float64
}

// DefaultParams is a same-region object store: ~15–30 ms first byte and
// ~90 MB/s effective single-stream throughput, consistent with the
// S3/Azure-Blob behavior the paper's storage-bound steps exhibit.
func DefaultParams() Params {
	return Params{
		GetRTT:  sim.NewLogNormal(18*time.Millisecond, 0.45, 2*time.Second),
		PutRTT:  sim.NewLogNormal(25*time.Millisecond, 0.45, 2*time.Second),
		ReadBW:  90e6,
		WriteBW: 70e6,
	}
}

// Stats counts blob operations.
type Stats struct {
	Gets   int64
	Puts   int64
	Misses int64
}

// Transactions returns the number of billable storage operations.
func (s Stats) Transactions() int64 { return s.Gets + s.Puts + s.Misses }

// NotFoundError reports a Get of a missing key.
type NotFoundError struct{ Key string }

func (e *NotFoundError) Error() string { return fmt.Sprintf("blob: key %q not found", e.Key) }

// object is one stored blob. Shared objects alias caller-owned
// immutable bytes (placeholder payloads, preloaded datasets) instead
// of a private copy, and Get hands the alias back out — both sides of
// the copy that dominated the suite's memory traffic disappear while
// timing and metering stay byte-for-byte identical.
type object struct {
	data   []byte
	shared bool
}

// Store is a simulated object store. All methods that take a *sim.Proc
// consume virtual time on that process.
type Store struct {
	rng     *sim.RNG
	params  Params
	objects map[string]object
	stats   Stats
}

// New creates an empty store. name scopes the RNG stream so multiple
// stores in one simulation stay independent.
func New(k *sim.Kernel, name string, params Params) *Store {
	return &Store{
		rng:     k.Stream("blob/" + name),
		params:  params,
		objects: make(map[string]object),
	}
}

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() Stats { return s.stats }

// transfer returns the time to move n bytes at bw bytes/sec.
func transfer(n int, bw float64) time.Duration {
	if bw <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// Put stores data under key, taking RTT + size/bandwidth of virtual time.
func (s *Store) Put(p *sim.Proc, key string, data []byte) {
	s.stats.Puts++
	p.Sleep(s.params.PutRTT.Sample(s.rng) + transfer(len(data), s.params.WriteBW))
	cp := make([]byte, len(data))
	copy(cp, data)
	s.objects[key] = object{data: cp}
}

// PutShared is Put for caller-owned immutable bytes: identical timing
// and metering, but the store keeps an alias instead of a copy, and
// Get returns the alias instead of a copy. Neither the caller nor any
// Get consumer may modify the bytes afterwards. Use it for payloads
// whose content never changes (payload.Zeros placeholders, memoized
// artifacts).
func (s *Store) PutShared(p *sim.Proc, key string, data []byte) {
	s.stats.Puts++
	p.Sleep(s.params.PutRTT.Sample(s.rng) + transfer(len(data), s.params.WriteBW))
	s.objects[key] = object{data: data[:len(data):len(data)], shared: true}
}

// Get retrieves the object under key. A missing key still costs one
// round-trip (and is metered as a miss).
func (s *Store) Get(p *sim.Proc, key string) ([]byte, error) {
	obj, ok := s.objects[key]
	if !ok {
		s.stats.Misses++
		p.Sleep(s.params.GetRTT.Sample(s.rng))
		return nil, &NotFoundError{Key: key}
	}
	s.stats.Gets++
	p.Sleep(s.params.GetRTT.Sample(s.rng) + transfer(len(obj.data), s.params.ReadBW))
	if obj.shared {
		return obj.data, nil
	}
	cp := make([]byte, len(obj.data))
	copy(cp, obj.data)
	return cp, nil
}

// Preload stores data under key without consuming virtual time or
// metering transactions — for staging inputs that exist before the
// measured window (e.g. the paper's datasets already resident in S3).
func (s *Store) Preload(key string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.objects[key] = object{data: cp}
}

// PreloadShared is Preload without the copy: the store aliases the
// caller's immutable bytes (see PutShared for the contract).
func (s *Store) PreloadShared(key string, data []byte) {
	s.objects[key] = object{data: data[:len(data):len(data)], shared: true}
}

// Len returns the number of stored objects.
func (s *Store) Len() int { return len(s.objects) }
