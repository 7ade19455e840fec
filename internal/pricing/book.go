package pricing

import "time"

// Usage is a provider-neutral resource consumption record — the
// quantities a price book turns into a Bill. core.Backend implementations
// produce cumulative Usage snapshots; campaigns bill the delta between
// two snapshots.
type Usage struct {
	// GBs is billed gigabyte-seconds of compute.
	GBs float64
	// Requests counts function invocations/executions.
	Requests int64
	// StatefulTxns counts the operations billed under the provider's
	// stateful line item: Step Functions state transitions, Azure
	// storage transactions (all of them for durable styles, manual
	// queues only otherwise), GCP Workflows internal steps.
	StatefulTxns int64
	// AllTxns counts every storage transaction the run performed,
	// regardless of how it is billed — the paper's transactions-per-run
	// metric (Fig 15 reports it independently of the bill).
	AllTxns int64
	// BlobTxns counts object-store requests (S3/Blob/GCS).
	BlobTxns int64
	// Exec is summed raw execution time across all invocations.
	Exec time.Duration
}

// Sub returns the element-wise difference u - o (the usage between two
// cumulative snapshots).
func (u Usage) Sub(o Usage) Usage {
	return Usage{
		GBs:          u.GBs - o.GBs,
		Requests:     u.Requests - o.Requests,
		StatefulTxns: u.StatefulTxns - o.StatefulTxns,
		AllTxns:      u.AllTxns - o.AllTxns,
		BlobTxns:     u.BlobTxns - o.BlobTxns,
		Exec:         u.Exec - o.Exec,
	}
}

// Book prices a Usage into a Bill. Each registered provider supplies
// one; campaigns never branch on the provider to compute cost.
type Book interface {
	Bill(u Usage) Bill
}

// Bill implements Book over the AWS price book.
func (p AWSPrices) Bill(u Usage) Bill {
	return p.AWSBill(u.GBs, u.Requests, u.StatefulTxns, u.BlobTxns)
}

// Bill implements Book over the Azure price book.
func (p AzurePrices) Bill(u Usage) Bill {
	return p.AzureBill(u.GBs, u.Requests, u.StatefulTxns, u.BlobTxns)
}

// GCPPrices is the GCP price book (Cloud Functions gen-1 + Workflows +
// Cloud Storage, 2021, USD). Cloud Functions bills memory (GB-s) and
// CPU (GHz-s) separately; the configured tiers pair them at a fixed
// ratio, so the book carries both rates plus the tier ratio.
type GCPPrices struct {
	// FunctionsGBs is per GB-second of configured memory ($0.0000025).
	FunctionsGBs float64
	// FunctionsGHzs is per GHz-second of configured CPU ($0.0000100).
	FunctionsGHzs float64
	// GHzPerGB converts billed GB-s to GHz-s: the gen-1 tier table
	// allocates ~1.4 GHz per GB (1024 MB -> 1.4 GHz).
	GHzPerGB float64
	// Invocation is per function invocation ($0.40 per million).
	Invocation float64
	// WorkflowStep is per Workflows internal step ($0.01 per 1,000).
	WorkflowStep float64
	// StorageRequest is per Cloud Storage operation (blended class
	// A($0.05/10k)/class B($0.004/10k)).
	StorageRequest float64
}

// DefaultGCP returns the 2021 list prices.
func DefaultGCP() GCPPrices {
	return GCPPrices{
		FunctionsGBs:   0.0000025,
		FunctionsGHzs:  0.0000100,
		GHzPerGB:       1.4,
		Invocation:     0.40 / 1e6,
		WorkflowStep:   0.01 / 1e3,
		StorageRequest: 0.0000027, // blended class A/B
	}
}

// Bill implements Book over the GCP price book: compute combines the
// memory and the tier-coupled CPU charge; Workflows steps are the
// stateful line item.
func (p GCPPrices) Bill(u Usage) Bill {
	return Bill{
		Compute:  u.GBs * (p.FunctionsGBs + p.GHzPerGB*p.FunctionsGHzs),
		Requests: float64(u.Requests) * p.Invocation,
		Stateful: float64(u.StatefulTxns) * p.WorkflowStep,
		Blob:     float64(u.BlobTxns) * p.StorageRequest,
	}
}
