package obs

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestQuantilesAndStats(t *testing.T) {
	var s Samples
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if s.Quantile(0) != time.Millisecond || s.Max() != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Quantile(0), s.Max())
	}
	med := s.Median()
	if med < 50*time.Millisecond || med > 51*time.Millisecond {
		t.Fatalf("median = %v", med)
	}
	p99 := s.P99()
	if p99 < 99*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
	if s.Mean() != 50500*time.Microsecond {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func TestAddInterleavedWithQueries(t *testing.T) {
	var s Samples
	s.Add(5 * time.Second)
	if s.Median() != 5*time.Second {
		t.Fatal("single-sample median")
	}
	s.Add(time.Second) // after a query; must re-sort
	if s.Quantile(0) != time.Second {
		t.Fatalf("min after re-add = %v", s.Quantile(0))
	}
}

func TestCDFMonotonic(t *testing.T) {
	var s Samples
	for i := 0; i < 57; i++ {
		s.Add(time.Duration((i*37)%100) * time.Millisecond)
	}
	pts := s.CDF(20)
	if len(pts) != 20 {
		t.Fatalf("cdf len = %d", len(pts))
	}
	if pts[0].Frac != 0 || pts[len(pts)-1].Frac != 1 {
		t.Fatal("cdf fraction endpoints")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Frac < pts[i-1].Frac {
			t.Fatalf("cdf not monotonic at %d", i)
		}
	}
}

func TestFracBelow(t *testing.T) {
	var s Samples
	for i := 1; i <= 10; i++ {
		s.Add(time.Duration(i) * time.Second)
	}
	if got := s.FracBelow(5 * time.Second); got != 0.5 {
		t.Fatalf("FracBelow(5s) = %v", got)
	}
	if got := s.FracBelow(time.Hour); got != 1 {
		t.Fatalf("FracBelow(max) = %v", got)
	}
	if got := s.FracBelow(0); got != 0 {
		t.Fatalf("FracBelow(0) = %v", got)
	}
}

func TestBreakdownAtQuantile(t *testing.T) {
	var bs BreakdownSet
	for i := 1; i <= 10; i++ {
		bs.Add(Breakdown{QueueTime: time.Duration(i) * time.Second, ExecTime: time.Second})
	}
	worst := bs.AtQuantile(1)
	if worst.QueueTime != 10*time.Second {
		t.Fatalf("worst queue time = %v", worst.QueueTime)
	}
	median := bs.AtQuantile(0.5)
	if median.QueueTime < 4*time.Second || median.QueueTime > 6*time.Second {
		t.Fatalf("median queue time = %v", median.QueueTime)
	}
	if worst.Total() != 11*time.Second {
		t.Fatalf("total = %v", worst.Total())
	}
}

func TestBreakdownAdd(t *testing.T) {
	a := Breakdown{ColdStart: 1, QueueTime: 2, ExecTime: 3, Other: 4}
	b := a.Add(a)
	if b.Total() != 20 {
		t.Fatalf("add = %+v", b)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{90 * time.Second, "1.5m"},
		{1500 * time.Millisecond, "1.50s"},
		{5 * time.Millisecond, "5ms"},
		{100 * time.Microsecond, "100µs"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Header: []string{"impl", "latency"}}
	tbl.AddRow("AWS-Step", "1.2s")
	tbl.AddRow("Az-Dorch", "900ms")
	out := tbl.String()
	if !strings.Contains(out, "AWS-Step") || !strings.Contains(out, "impl") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
}

// Property: Quantile is monotonic in q and bounded by min/max.
func TestPropertyQuantileMonotonic(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var s Samples
		for _, r := range raw {
			s.Add(time.Duration(r % 1e6))
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := s.Quantile(q)
			if v < prev || v < s.Quantile(0) || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddAllKeepsSortedFastPath(t *testing.T) {
	var s Samples
	s.AddAll([]time.Duration{1, 2, 3})
	if !s.sorted {
		t.Fatal("sorted bulk load must keep the sorted flag")
	}
	s.AddAll([]time.Duration{3, 5, 9})
	if !s.sorted {
		t.Fatal("non-decreasing extension must keep the sorted flag")
	}
	s.AddAll([]time.Duration{4})
	if s.sorted {
		t.Fatal("out-of-order extension must clear the sorted flag")
	}
	if s.Quantile(0) != 1 || s.Max() != 9 || s.Len() != 7 {
		t.Fatalf("min/max/len = %v/%v/%d", s.Quantile(0), s.Max(), s.Len())
	}
}

func TestSortMakesQuantilesPureReads(t *testing.T) {
	var s Samples
	s.AddAll([]time.Duration{9, 1, 5})
	s.Sort()
	if !s.sorted {
		t.Fatal("Sort must leave the collection sorted")
	}
	if s.Median() != 5 {
		t.Fatalf("median = %v", s.Median())
	}
}
