package netherite_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/chaos"
	"statebench/internal/sim"
)

// runTranscript runs a mixed Durable workload (activity chain plus
// entity signal folds) on a Netherite hub and renders everything
// observable — outputs, handle timings, billed commits, log and chaos
// accounting — into one string. Byte-equality of transcripts is the
// determinism property the tier-2 gate enforces.
func runTranscript(t *testing.T, seed uint64, plan *chaos.Plan) string {
	t.Helper()
	e := netheriteEnv(seed, plan)
	registerChain(t, e.hub)
	registerCounter(t, e.hub)

	var b strings.Builder
	e.drive(func(p *sim.Proc) {
		out, hd, err := e.client.Run(p, "chain", []byte("0"))
		if err != nil {
			t.Errorf("chain: %v", err)
			return
		}
		fmt.Fprintf(&b, "chain out=%s status=%s cold=%v e2e=%v\n", out, hd.Status(), hd.ColdStart(), hd.E2E())

		id := durable.EntityID{Name: "Counter", Key: "c1"}
		for _, v := range []int{5, 7, 11} {
			in, _ := json.Marshal(v)
			if err := e.client.SignalEntity(p, id, "add", in); err != nil {
				t.Errorf("signal: %v", err)
				return
			}
			p.Sleep(50 * time.Millisecond)
		}
		p.Sleep(2 * time.Minute) // past any chaos redelivery window
		state, ok := e.client.ReadEntityState(p, id)
		fmt.Fprintf(&b, "entity state=%s ok=%v now=%v\n", state, ok, p.Now())
	})

	fmt.Fprintf(&b, "store txns=%d appended=%d lost=%d droppedDup=%d\n",
		e.store.Transactions(), e.store.AppendedRecords(), e.store.LostRecords(), e.store.DroppedDuplicates())
	fmt.Fprintf(&b, "log total=%d\n", e.store.AppendedRecords())
	if e.inj != nil {
		st := e.inj.Stats()
		fmt.Fprintf(&b, "chaos injected=%d crashes=%d dups=%d wasted=%d recovery=%v\n",
			st.Injected, st.Crashes, st.Duplicates, st.WastedWork, st.RecoveryDelay)
	}
	return b.String()
}

// netheritePlan is DefaultPlan at paper rate, which since PR 8 includes
// the netherite commit-crash and transport-duplicate rules.
func netheritePlan() *chaos.Plan { return chaos.DefaultPlan(0.05) }

// transcriptSeeds are the seeds testdata/transcripts.txt records.
var transcriptSeeds = []uint64{1, 7, 9, 42}

// recordedTranscript returns the section of testdata/transcripts.txt
// for seed, fault-free or under netheritePlan. The file was recorded
// from the partitioned store at 8 partitions, which produced the same
// bytes at 1 and 4.
func recordedTranscript(t *testing.T, seed uint64, chaos bool) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "transcripts.txt"))
	if err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf("--- seed %d, fault-free ---\n", seed)
	if chaos {
		header = fmt.Sprintf("--- seed %d, DefaultPlan(0.05) ---\n", seed)
	}
	_, rest, ok := strings.Cut(string(data), header)
	if !ok {
		t.Fatalf("testdata/transcripts.txt has no section %q", header)
	}
	if i := strings.Index(rest, "--- seed "); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// TestByteIdenticalAcrossPartitionCounts is the determinism property
// of the one-log store: for every recorded seed, the fault-free
// transcript equals, byte for byte, the one the partitioned store
// produced at every partition count — one log changes no result,
// timing, billed commit or log count.
func TestByteIdenticalAcrossPartitionCounts(t *testing.T) {
	for _, seed := range transcriptSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			if got, want := runTranscript(t, seed, nil), recordedTranscript(t, seed, false); got != want {
				t.Fatalf("transcript diverged from the recorded partitioned store:\n--- recorded ---\n%s--- one log ---\n%s", want, got)
			}
		})
	}
}

// TestByteIdenticalAcrossPartitionCountsUnderChaos repeats the property
// with the full default fault plan active: chaos decisions key on
// instance and orchestrator names, so fault schedules match the
// partitioned store's too.
func TestByteIdenticalAcrossPartitionCountsUnderChaos(t *testing.T) {
	for _, seed := range transcriptSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			got := runTranscript(t, seed, netheritePlan())
			if !strings.Contains(got, "chaos injected=") {
				t.Fatal("chaos transcript missing injector stats")
			}
			if want := recordedTranscript(t, seed, true); got != want {
				t.Fatalf("under chaos, transcript diverged from the recorded partitioned store:\n--- recorded ---\n%s--- one log ---\n%s", want, got)
			}
		})
	}
}

// TestRepeatedRunsByteIdentical pins run-to-run determinism under the
// default chaos plan: for every recorded seed, two runs produce the
// recorded transcript. Seed 9 runs as partitions-1, -4 and -8, the
// partitioned store's repeat-run check: each compares with the
// transcript that store recorded at that partition count (testdata
// holds it once, as the three were byte-identical). The parallel
// subtests also make the suite itself exercise -parallel sensitivity:
// transcripts computed concurrently must equal transcripts computed
// alone.
func TestRepeatedRunsByteIdentical(t *testing.T) {
	repeat := func(name string, seed uint64) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a := runTranscript(t, seed, netheritePlan())
			b := runTranscript(t, seed, netheritePlan())
			if a != b {
				t.Fatalf("same seed, different transcripts:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
			}
			if want := recordedTranscript(t, seed, true); a != want {
				t.Fatalf("repeated runs diverged from the recorded transcript:\n--- recorded ---\n%s--- one log ---\n%s", want, a)
			}
		})
	}
	for _, seed := range transcriptSeeds {
		if seed != 9 {
			repeat(fmt.Sprintf("seed-%d", seed), seed)
		}
	}
	for _, parts := range []int{1, 4, 8} {
		repeat(fmt.Sprintf("partitions-%d", parts), 9)
	}
}
