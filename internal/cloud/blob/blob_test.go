package blob

import (
	"errors"
	"testing"
	"time"

	"statebench/internal/sim"
)

// fixedParams gives deterministic latencies for exact-time assertions.
func fixedParams() Params {
	return Params{
		GetRTT:  sim.Fixed{D: 10 * time.Millisecond},
		PutRTT:  sim.Fixed{D: 20 * time.Millisecond},
		ReadBW:  1e6, // 1 MB/s
		WriteBW: 1e6,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, "s3", fixedParams())
	var got []byte
	k.Spawn("client", func(p *sim.Proc) {
		s.Put(p, "a", []byte("hello"))
		v, err := s.Get(p, "a")
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		got = v
	})
	k.Run()
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestLatencyModel(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, "s3", fixedParams())
	data := make([]byte, 1_000_000) // 1 MB at 1 MB/s = 1 s transfer
	var putDone, getDone time.Duration
	k.Spawn("client", func(p *sim.Proc) {
		s.Put(p, "big", data)
		putDone = p.Now()
		if _, err := s.Get(p, "big"); err != nil {
			t.Errorf("Get: %v", err)
		}
		getDone = p.Now()
	})
	k.Run()
	if putDone != 1020*time.Millisecond {
		t.Fatalf("put finished at %v, want 1.02s (20ms RTT + 1s transfer)", putDone)
	}
	if getDone-putDone != 1010*time.Millisecond {
		t.Fatalf("get took %v, want 1.01s", getDone-putDone)
	}
}

func TestGetMissing(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, "s3", fixedParams())
	var err error
	k.Spawn("client", func(p *sim.Proc) { _, err = s.Get(p, "nope") })
	k.Run()
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.Key != "nope" {
		t.Fatalf("err = %v, want NotFoundError{nope}", err)
	}
	if s.Stats().Misses != 1 {
		t.Fatalf("misses = %d", s.Stats().Misses)
	}
}

func TestStatsAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, "s3", fixedParams())
	k.Spawn("client", func(p *sim.Proc) {
		s.Put(p, "a", make([]byte, 100))
		s.Put(p, "b", make([]byte, 50))
		if _, err := s.Get(p, "a"); err != nil {
			t.Errorf("Get: %v", err)
		}
		_, _ = s.Get(p, "c") // a miss
	})
	k.Run()
	st := s.Stats()
	if st.Puts != 2 || st.Gets != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Transactions() != 4 {
		t.Fatalf("transactions = %d, want 4", st.Transactions())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, "s3", fixedParams())
	k.Spawn("client", func(p *sim.Proc) {
		orig := []byte("abc")
		s.Put(p, "k", orig)
		orig[0] = 'X' // caller mutates after Put; store must be unaffected
		v, err := s.Get(p, "k")
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		if string(v) != "abc" {
			t.Errorf("store affected by caller mutation: %q", v)
		}
		v[0] = 'Y' // mutate returned copy; store must be unaffected
		v2, _ := s.Get(p, "k")
		if string(v2) != "abc" {
			t.Errorf("store affected by reader mutation: %q", v2)
		}
	})
	k.Run()
}

func TestControlPlaneHelpers(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, "s3", fixedParams())
	k.Spawn("client", func(p *sim.Proc) { s.Put(p, "k", make([]byte, 7)) })
	k.Run()
	if s.Len() != 1 {
		t.Fatal("Len wrong")
	}
}
