package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestAblationMemorySweep(t *testing.T) {
	o := tiny()
	r, err := AblationMemory(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Table.Rows))
	}
	// More memory => lower latency but GB-s should grow at the top end
	// (billing on configured memory).
	first := r.Table.Rows[0]
	last := r.Table.Rows[len(r.Table.Rows)-1]
	fGBs, _ := strconv.ParseFloat(first[2], 64)
	lGBs, _ := strconv.ParseFloat(last[2], 64)
	if lGBs <= fGBs {
		t.Fatalf("3072MB GB-s %.2f not above 512MB %.2f", lGBs, fGBs)
	}
}

func TestAblationKeepAlive(t *testing.T) {
	o := tiny()
	o.Iters = 6
	r, err := AblationKeepAlive(o)
	if err != nil {
		t.Fatal(err)
	}
	// 2-minute keep-alive with 10-minute gaps: everything cold.
	if !strings.Contains(r.Table.Rows[0][1], "100") {
		t.Fatalf("short keep-alive cold fraction = %s, want 100%%", r.Table.Rows[0][1])
	}
	// 30-minute keep-alive: only the first request cold.
	lastRow := r.Table.Rows[len(r.Table.Rows)-1]
	if lastRow[1] == "100.0%" {
		t.Fatalf("long keep-alive still fully cold: %v", lastRow)
	}
}

func TestAblationMapConcurrency(t *testing.T) {
	o := tiny()
	r, err := AblationMapConcurrency(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Table.Rows))
	}
	if r.Table.Rows[len(r.Table.Rows)-1][0] != "unbounded" {
		t.Fatalf("last row = %v", r.Table.Rows[len(r.Table.Rows)-1])
	}
}

func TestRegistryWithAblations(t *testing.T) {
	if len(RegistryWithAblations()) != 23 {
		t.Fatalf("size = %d", len(RegistryWithAblations()))
	}
	if _, err := Find("ablation-memory"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("optimize"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("reliability"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("netherite"); err != nil {
		t.Fatal(err)
	}
}
