package obs

import (
	"strings"
	"sync"
	"testing"
)

type testStats struct {
	Count   uint64  `metric:"counter test_count_total" help:"A uint64 counter."`
	Signed  int64   `metric:"counter test_signed_total" help:"An int64 counter."`
	Entries int     `metric:"gauge test_entries" help:"An int gauge."`
	Ratio   float64 `metric:"gauge test_ratio" help:"A float gauge."`
	Down    bool    `metric:"gauge test_down" help:"A bool gauge."`
	Label   string  // untagged: skipped
	Ints    int     `json:"ints"`
}

func TestRegisterStatsExposition(t *testing.T) {
	r := NewRegistry()
	st := testStats{Count: 7, Signed: 3, Entries: 2, Ratio: 0.25, Down: true, Label: "x", Ints: 9}
	calls := 0
	RegisterStats(r, func() testStats { calls++; return st })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_count_total A uint64 counter.
# TYPE test_count_total counter
test_count_total 7
# HELP test_down A bool gauge.
# TYPE test_down gauge
test_down 1
# HELP test_entries An int gauge.
# TYPE test_entries gauge
test_entries 2
# HELP test_ratio A float gauge.
# TYPE test_ratio gauge
test_ratio 0.25
# HELP test_signed_total An int64 counter.
# TYPE test_signed_total counter
test_signed_total 3
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if calls != 1 {
		t.Fatalf("first pass took %d snapshots, want 1", calls)
	}

	// Each later pass takes exactly one fresh snapshot and sees new values.
	st.Count, st.Down = 8, false
	sb.Reset()
	r.WritePrometheus(&sb)
	if calls != 2 {
		t.Fatalf("two passes took %d snapshots, want 2", calls)
	}
	for _, line := range []string{"test_count_total 8\n", "test_down 0\n"} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("second pass missing %q:\n%s", line, sb.String())
		}
	}
}

func TestRegisterStatsRereadRefreshes(t *testing.T) {
	r := NewRegistry()
	var n uint64
	RegisterStats(r, func() testStats { n++; return testStats{Count: n} })
	var read func() uint64
	r.Families(func(f FamilyInfo) {
		if f.Name == "test_count_total" {
			read = f.ReadCounter
		}
	})
	// Re-reading one family never serves the value it already served.
	for want := uint64(1); want <= 3; want++ {
		if got := read(); got != want {
			t.Fatalf("read %d = %d", want, got)
		}
	}
}

func TestRegisterStatsPanics(t *testing.T) {
	type noKind struct {
		X uint64 `metric:"test_x_total"`
	}
	type badKind struct {
		X uint64 `metric:"histogram test_x"`
	}
	type boolCounter struct {
		X bool `metric:"counter test_x_total"`
	}
	type stringGauge struct {
		X string `metric:"gauge test_x"`
	}
	type badName struct {
		X uint64 `metric:"counter test-x"`
	}
	type dup struct {
		A uint64 `metric:"counter test_x_total"`
		B uint64 `metric:"counter test_x_total"`
	}
	cases := map[string]func(*Registry){
		"no kind":      func(r *Registry) { RegisterStats(r, func() noKind { return noKind{} }) },
		"bad kind":     func(r *Registry) { RegisterStats(r, func() badKind { return badKind{} }) },
		"bool counter": func(r *Registry) { RegisterStats(r, func() boolCounter { return boolCounter{} }) },
		"string gauge": func(r *Registry) { RegisterStats(r, func() stringGauge { return stringGauge{} }) },
		"bad name":     func(r *Registry) { RegisterStats(r, func() badName { return badName{} }) },
		"duplicate":    func(r *Registry) { RegisterStats(r, func() dup { return dup{} }) },
		"not a struct": func(r *Registry) { RegisterStats(r, func() int { return 0 }) },
		"clash": func(r *Registry) {
			r.Counter("test_count_total", "")
			RegisterStats(r, func() testStats { return testStats{} })
		},
	}
	for name, register := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("registration did not panic")
				}
			}()
			register(NewRegistry())
		})
	}
}

func TestRegisterStatsReadsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	st := testStats{Count: 1, Signed: 2, Entries: 3, Ratio: 0.5, Down: true}
	RegisterStats(r, func() testStats { return st })
	var counters []func() uint64
	var gauges []func() float64
	r.Families(func(f FamilyInfo) {
		switch f.Kind {
		case KindCounter:
			counters = append(counters, f.ReadCounter)
		case KindGauge:
			gauges = append(gauges, f.ReadGauge)
		}
	})
	if len(counters) != 2 || len(gauges) != 3 {
		t.Fatalf("got %d counters and %d gauges, want 2 and 3", len(counters), len(gauges))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, read := range counters {
			read()
		}
		for _, read := range gauges {
			read()
		}
	})
	if allocs != 0 {
		t.Fatalf("family reads allocate %.1f times per pass, want 0", allocs)
	}
}

// TestRegisterStatsConcurrentPasses runs expositions from several
// goroutines while the source keeps counting; run under -race.
func TestRegisterStatsConcurrentPasses(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var st testStats
	RegisterStats(r, func() testStats {
		mu.Lock()
		defer mu.Unlock()
		return st
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var sb strings.Builder
				r.WritePrometheus(&sb)
				if !strings.Contains(sb.String(), "test_count_total ") {
					t.Error("pass missing a stats family")
					return
				}
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		mu.Lock()
		st.Count++
		mu.Unlock()
	}
	wg.Wait()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "test_count_total 1000\n") {
		t.Fatalf("final pass does not see every increment:\n%s", sb.String())
	}
}
