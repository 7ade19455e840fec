// Package platform holds the pieces shared by both simulated clouds:
// compute billing meters and the calibration parameters (params.go) that
// define each platform's latency and scaling behavior.
package platform

import "time"

// Meter accumulates compute billing for one function app or function.
//
// The two clouds meter differently (paper §IV):
//   - AWS bills the *configured* memory for the execution duration
//     rounded up to 100 ms.
//   - Azure (consumption plan) bills the *observed* memory, rounded up
//     to 128 MB, for the execution duration with a 100 ms minimum.
//
// Record captures both the billed and the raw numbers so cost reports
// can show the gap.
type Meter struct {
	// Invocations counts executions (billed per-request on both clouds).
	Invocations int64
	// ExecTime is the summed raw execution time.
	ExecTime time.Duration
	// BilledGBs is the summed billed gigabyte-seconds.
	BilledGBs float64
	// ConsumedGBs is the summed actually-consumed gigabyte-seconds.
	ConsumedGBs float64
}

// RoundUp rounds d up to a multiple of step (step <= 0 returns d).
func RoundUp(d, step time.Duration) time.Duration {
	if step <= 0 {
		return d
	}
	if r := d % step; r != 0 {
		d += step - r
	}
	return d
}

// RecordAWS meters one per-request execution (AWS Lambda, and Cloud
// Functions gen 1, which bills the same way): billed on configured
// memory, duration rounded up to 100 ms. GCP's tier-coupled GHz-s
// charge is applied by its price book, not here.
func (m *Meter) RecordAWS(exec time.Duration, configuredMemMB, consumedMemMB int) {
	m.Invocations++
	m.ExecTime += exec
	billed := RoundUp(exec, 100*time.Millisecond)
	m.BilledGBs += billed.Seconds() * float64(configuredMemMB) / 1024
	m.ConsumedGBs += exec.Seconds() * float64(consumedMemMB) / 1024
}

// RecordAzure meters one Azure Functions execution: billed on observed
// memory rounded up to 128 MB, with a 100 ms minimum duration.
func (m *Meter) RecordAzure(exec time.Duration, consumedMemMB int) {
	m.Invocations++
	m.ExecTime += exec
	billedMem := roundUpMem(consumedMemMB, 128)
	d := exec
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	m.BilledGBs += d.Seconds() * float64(billedMem) / 1024
	m.ConsumedGBs += exec.Seconds() * float64(consumedMemMB) / 1024
}

// Add merges another meter into m.
func (m *Meter) Add(o Meter) {
	m.Invocations += o.Invocations
	m.ExecTime += o.ExecTime
	m.BilledGBs += o.BilledGBs
	m.ConsumedGBs += o.ConsumedGBs
}

func roundUpMem(mb, step int) int {
	if mb < step {
		return step
	}
	if r := mb % step; r != 0 {
		mb += step - r
	}
	return mb
}
