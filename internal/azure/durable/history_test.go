package durable

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"statebench/internal/azure/functions"
	"statebench/internal/chaos"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// jsonRecord is Record with the struct tags of the JSON history codec
// whose round trip the classic store's decoded history must match.
type jsonRecord struct {
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"`
	TaskID int    `json:"taskId,omitempty"`
	Name   string `json:"name,omitempty"`
	Data   []byte `json:"data,omitempty"`
	Error  string `json:"error,omitempty"`
}

// jsonHistory is that codec as a reference store: a commit marshals
// each record into a row keyed by %06d of its Seq, and a load sorts the
// instance's rows by key and unmarshals every one of them.
type jsonHistory map[string]map[string][]byte

func (j jsonHistory) commit(instance string, recs []Record) {
	rows := j[instance]
	if rows == nil {
		rows = make(map[string][]byte)
		j[instance] = rows
	}
	for _, ev := range recs {
		data, err := json.Marshal(jsonRecord(ev))
		if err != nil {
			continue
		}
		rows[fmt.Sprintf("%06d", ev.Seq)] = data
	}
}

func (j jsonHistory) load(instance string) []Record {
	rows := j[instance]
	keys := make([]string, 0, len(rows))
	for rk := range rows {
		keys = append(keys, rk)
	}
	slices.Sort(keys)
	events := make([]Record, 0, len(rows))
	for _, rk := range keys {
		var ev jsonRecord
		if err := json.Unmarshal(rows[rk], &ev); err == nil {
			events = append(events, Record(ev))
		}
	}
	return events
}

// checkedStore is the classic store with the reference codec beside
// it. Every load the hub makes, and fresh loads after every commit
// and purge, must return what the reference returns.
type checkedStore struct {
	*classicStore
	t      *testing.T
	ref    jsonHistory
	checks int
}

func newCheckedStore(t *testing.T, k *sim.Kernel, params platform.AzureParams) *checkedStore {
	return &checkedStore{classicStore: newClassicStore(k, "hub", params), t: t, ref: jsonHistory{}}
}

func (c *checkedStore) LoadHistory(p *sim.Proc, instance string) []Record {
	got := c.classicStore.LoadHistory(p, instance)
	c.compare("load", instance, got)
	return got
}

func (c *checkedStore) CommitEpisode(p *sim.Proc, instance, orchestrator string, tctx sim.TraceContext, recs []Record) (CommitVerdict, time.Duration) {
	v, settle := c.classicStore.CommitEpisode(p, instance, orchestrator, tctx, recs)
	c.ref.commit(instance, recs)
	c.reload(p, "commit", instance)
	return v, settle
}

// reload loads instance twice, compares the first load, appends to
// both loads' slices and Data, and compares a third load. The two
// appends to one record's Data must not land in shared capacity.
func (c *checkedStore) reload(p *sim.Proc, after, instance string) {
	a := c.classicStore.LoadHistory(p, instance)
	c.compare("load after "+after, instance, a)
	b := c.classicStore.LoadHistory(p, instance)
	a = append(a, Record{Seq: len(a), Kind: evEventRaised, Data: []byte("extra")})
	for i := range a {
		a[i].Data = append(a[i].Data, 0xAA)
	}
	for i := range b {
		b[i].Data = append(b[i].Data, 0xBB)
		if last := a[i].Data[len(a[i].Data)-1]; last != 0xAA {
			c.t.Errorf("record %d of %q: an append to one load's Data overwrote another's (%#x)", i, instance, last)
		}
	}
	c.compare("load after scribbling on two earlier ones", instance, c.classicStore.LoadHistory(p, instance))
}

func (c *checkedStore) compare(what, instance string, got []Record) {
	c.t.Helper()
	c.checks++
	if want := c.ref.load(instance); !reflect.DeepEqual(got, want) {
		c.t.Errorf("%s of %q:\n  store: %#v\n  json:  %#v", what, instance, got, want)
	}
}

// TestClassicHistoryMatchesJSONCodec requires the classic store's
// history to read back exactly as the JSON codec's did: the same
// records in the same order, nil for empty Data, through
// crash-after-persist redeliveries, over scripted and
// seeded record sequences, and unchanged by whatever a caller does to a
// loaded slice short of writing into a record's Data bytes.
//
// Generated strings are valid UTF-8. The JSON codec rewrote invalid
// UTF-8 in Name, Op and Error to U+FFFD, and no caller produces it:
// names come from registered functions and entity IDs, and errors
// from Go error strings and from control messages that have
// themselves been through JSON on the queues.
func TestClassicHistoryMatchesJSONCodec(t *testing.T) {
	t.Run("scripted", func(t *testing.T) {
		k := sim.NewKernel(1)
		s := newCheckedStore(t, k, platform.DefaultAzure())
		commit := func(p *sim.Proc, inst string, recs ...Record) {
			s.CommitEpisode(p, inst, "o", sim.TraceContext{}, recs)
		}
		k.Spawn("script", func(p *sim.Proc) {
			s.compare("load of an unknown instance", "none", s.classicStore.LoadHistory(p, "none"))
			// nil, empty and non-empty Data, and an empty commit.
			commit(p, "a",
				Record{Seq: 0, Kind: evExecutionStarted},
				Record{Seq: 1, Kind: evTaskScheduled, TaskID: 0, Name: "w", Data: []byte{}},
				Record{Seq: 2, Kind: evTaskScheduled, TaskID: 1, Name: "w", Data: []byte(`"x"`)})
			commit(p, "a")
			commit(p, "a",
				Record{Seq: 3, Kind: evTaskCompleted, TaskID: 1, Name: "w", Data: []byte{0, 1, 2}},
				Record{Seq: 4, Kind: evTaskFailed, TaskID: 0, Name: "w", Error: "boom <&> \"quoted\""},
				Record{Seq: 5, Kind: evEntityCalled, TaskID: 2, Name: "@Sum@k", Data: []byte("1")})
			// More than one 100-row batch in one commit.
			big := make([]Record, 250)
			for i := range big {
				big[i] = Record{Seq: i, Kind: evTaskScheduled, TaskID: i, Name: "w", Data: []byte{byte(i)}}
			}
			commit(p, "b", big...)
		})
		k.Run()
		if s.checks == 0 {
			t.Fatal("no loads compared")
		}
	})

	t.Run("hub", func(t *testing.T) {
		// A chain under one crash before and one after persistence (the
		// redelivered episode re-folds its messages onto the persisted
		// rows), then a two-activity fan-out on the same hub.
		k := sim.NewKernel(1)
		params := platform.DefaultAzure()
		params.HistoryReplayPerEvent = 5 * time.Millisecond
		host := functions.NewHost(k, "app", params)
		s := newCheckedStore(t, k, params)
		hub := NewHubWithStore(k, host, "hub", s)
		inj := chaos.NewInjector(k, &chaos.Plan{
			RedeliveryDelay: 2 * time.Second,
			Rules: []chaos.Rule{
				{Component: "durable", Name: "chain", Kind: chaos.Crash, Rate: 1, MaxFaults: 1},
				{Component: "durable", Name: "chain", Kind: chaos.CrashAfterPersist, Rate: 1, MaxFaults: 1},
			},
		})
		hub.SetChaos(inj)
		registerChain(t, hub)
		if err := hub.RegisterActivity("tick", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
			ctx.Busy(10 * time.Millisecond)
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := hub.RegisterOrchestrator("fanout", 128, func(ctx *OrchestrationContext, _ []byte) ([]byte, error) {
			if _, err := ctx.WaitAll(ctx.CallActivity("tick", nil), ctx.CallActivity("tick", []byte{})); err != nil {
				return nil, err
			}
			return []byte("done"), nil
		}); err != nil {
			t.Fatal(err)
		}
		client := NewClient(hub)
		drive(k, host, func(p *sim.Proc) {
			if out, _, err := client.Run(p, "chain", []byte("0")); err != nil || string(out) != "3" {
				t.Errorf("chain = %s, %v; want 3", out, err)
			}
			if out, _, err := client.Run(p, "fanout", nil); err != nil || string(out) != "done" {
				t.Errorf("fanout = %s, %v; want done", out, err)
			}
		})
		if st := inj.Stats(); st.Injected != 2 {
			t.Fatalf("injected crashes = %d, want 2 (before and after persist)", st.Injected)
		}
		if s.checks == 0 {
			t.Fatal("no loads compared")
		}
	})

	t.Run("seeded", func(t *testing.T) {
		kinds := []string{
			evExecutionStarted, evTaskScheduled, evTaskCompleted, evTaskFailed,
			evTimerCreated, evTimerFired, evEntityCalled, evEntityResponded,
			evSubOrchCreated, evSubOrchCompleted, evSubOrchFailed,
			evExecutionCompleted, evExecutionFailed, evEventWaited, evEventRaised,
		}
		// Valid UTF-8 only, but with the characters the codec escapes.
		alphabet := []string{"a", "Z", "7", "-", "@", "<", ">", "&", `"`, `\`, "\n", "\x00", "é", "世", "🙂"}
		for seed := uint64(1); seed <= 8; seed++ {
			rng := sim.NewRNG(seed)
			str := func() string {
				out := ""
				for n := rng.Intn(5); n > 0; n-- {
					out += alphabet[rng.Intn(len(alphabet))]
				}
				return out
			}
			data := func() []byte {
				switch rng.Intn(4) {
				case 0:
					return nil
				case 1:
					return []byte{}
				}
				b := make([]byte, 1+rng.Intn(40))
				for i := range b {
					b[i] = byte(rng.Intn(256))
				}
				return b
			}
			k := sim.NewKernel(seed)
			s := newCheckedStore(t, k, platform.DefaultAzure())
			instances := []string{"x", "y-000001", "z"}
			next := map[string]int{}
			k.Spawn("seeded", func(p *sim.Proc) {
				for step := 0; step < 40; step++ {
					inst := instances[rng.Intn(len(instances))]
					n := rng.Intn(8)
					if rng.Intn(10) == 0 {
						n = 95 + rng.Intn(20)
					}
					recs := make([]Record, n)
					for i := range recs {
						recs[i] = Record{
							Seq: next[inst] + i, Kind: kinds[rng.Intn(len(kinds))], TaskID: rng.Intn(50),
							Name: str(), Data: data(), Error: str(),
						}
					}
					next[inst] += n
					s.CommitEpisode(p, inst, "o", sim.TraceContext{}, recs)
					// The store must not share the committed records'
					// Data with the caller either.
					for i := range recs {
						for j := range recs[i].Data {
							recs[i].Data[j] ^= 0xFF
						}
					}
					s.compare(fmt.Sprintf("seed %d step %d: load after the caller reused its buffers", seed, step), inst, s.classicStore.LoadHistory(p, inst))
				}
			})
			k.Run()
		}
	})
}
