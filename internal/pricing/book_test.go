package pricing

import (
	"testing"
	"time"
)

// sampleUsage is one run's consumption, billed by every book below so
// the per-provider line-item mapping is visible side by side.
var sampleUsage = Usage{
	GBs:          100,
	Requests:     1_000_000,
	StatefulTxns: 10_000,
	AllTxns:      50_000,
	BlobTxns:     100_000,
	Exec:         90 * time.Second,
}

func TestBooksPriceLineItems(t *testing.T) {
	cases := []struct {
		name string
		book Book
		want Bill
	}{
		{
			name: "aws",
			book: DefaultAWS(),
			want: Bill{
				Compute:  100 * 0.0000166667,
				Requests: 1e6 * 0.20 / 1e6,
				Stateful: 10_000 * 0.025 / 1e3,
				Blob:     100_000 * 0.0000054,
			},
		},
		{
			name: "azure",
			book: DefaultAzure(),
			want: Bill{
				Compute:  100 * 0.000016,
				Requests: 1e6 * 0.20 / 1e6,
				Stateful: 10_000 * 0.00036 / 1e4,
				Blob:     100_000 * 0.0000044,
			},
		},
		{
			// GCP couples a GHz-s CPU charge to every billed GB-s via
			// the fixed tier ratio; everything else maps one line each.
			name: "gcp",
			book: DefaultGCP(),
			want: Bill{
				Compute:  100 * (0.0000025 + 1.4*0.0000100),
				Requests: 1e6 * 0.40 / 1e6,
				Stateful: 10_000 * 0.01 / 1e3,
				Blob:     100_000 * 0.0000027,
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.book.Bill(sampleUsage)
			check := func(field string, got, want float64) {
				if !close(got, want) {
					t.Errorf("%s = %v, want %v", field, got, want)
				}
			}
			check("compute", got.Compute, c.want.Compute)
			check("requests", got.Requests, c.want.Requests)
			check("stateful", got.Stateful, c.want.Stateful)
			check("blob", got.Blob, c.want.Blob)
			if got.Total() <= 0 {
				t.Error("zero total for non-zero usage")
			}
		})
	}
}

// TestStatefulUnitPriceOrdering pins the cross-provider relationship
// the paper's cost analysis (and the crosscloud experiment) rests on:
// per stateful operation, AWS transitions cost the most, GCP steps sit
// in between, and Azure storage transactions are by far the cheapest.
func TestStatefulUnitPriceOrdering(t *testing.T) {
	aws := DefaultAWS().StepTransition
	gcp := DefaultGCP().WorkflowStep
	az := DefaultAzure().StorageTransaction
	if !(aws > gcp && gcp > az) {
		t.Fatalf("unit prices: aws=%v gcp=%v azure=%v, want aws > gcp > azure", aws, gcp, az)
	}
}

func TestUsageSub(t *testing.T) {
	after := Usage{GBs: 10, Requests: 20, StatefulTxns: 30, AllTxns: 40, BlobTxns: 50, Exec: time.Minute}
	before := Usage{GBs: 4, Requests: 5, StatefulTxns: 6, AllTxns: 7, BlobTxns: 8, Exec: time.Second}
	d := after.Sub(before)
	want := Usage{GBs: 6, Requests: 15, StatefulTxns: 24, AllTxns: 33, BlobTxns: 42, Exec: 59 * time.Second}
	if d != want {
		t.Fatalf("delta = %+v, want %+v", d, want)
	}
}
