package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestServeScriptDeterministic(t *testing.T) {
	a, b := NewServeScript(7), NewServeScript(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different serve-mix scripts")
	}
	if fleetOptions(7) != fleetOptions(7) || paperOptions(7) != paperOptions(7) {
		t.Fatal("the same seed gave two different fleet seeds")
	}

	c := NewServeScript(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same serve-mix script")
	}
	if fleetOptions(7).FleetSeed == fleetOptions(8).FleetSeed {
		t.Fatal("seeds 7 and 8 gave the same fleet seed")
	}
	if len(a.CorpusLengths) != len(c.CorpusLengths) || len(a.Phases) != len(c.Phases) {
		t.Fatal("scripts of different seeds differ in shape")
	}
	for p := range a.Phases {
		if len(a.Phases[p]) != len(c.Phases[p]) {
			t.Errorf("phase %d: %d requests for seed 7, %d for seed 8", p, len(a.Phases[p]), len(c.Phases[p]))
		}
	}
}

func TestServeScriptShape(t *testing.T) {
	s := NewServeScript(1)
	misses, hits, storeHits := s.Phases[0], s.Phases[1], s.Phases[2]
	if len(hits) < 1000 || len(storeHits) < 1000 {
		t.Errorf("memory-hit and store-hit phases have %d and %d requests, want at least 1000 each", len(hits), len(storeHits))
	}
	missKeys := map[Request]bool{}
	for _, r := range misses {
		if missKeys[r] {
			t.Errorf("miss %+v repeats a key", r)
		}
		missKeys[r] = true
	}
	for _, r := range hits {
		r.Phase = phaseMiss
		if !missKeys[r] {
			t.Errorf("hit %+v is not a miss key", r)
		}
	}
	corpus := map[int]bool{}
	for _, l := range s.CorpusLengths {
		if corpus[l] {
			t.Errorf("corpus length %d repeats", l)
		}
		corpus[l] = true
	}
	stored := map[Request]bool{}
	for _, r := range storeHits {
		if !corpus[r.Options.TraceLength] || r.Options.TraceStride != corpusStride || stored[r] {
			t.Errorf("store hit %+v is not a distinct corpus key", r)
		}
		stored[r] = true
	}
	for _, r := range misses {
		if corpus[r.Options.TraceLength] {
			t.Errorf("miss %+v shares a trace length with the corpus", r)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricCatalog checks that every metric the benchmark can print has
// a valid name and unit, and that BENCHMARK.json lists exactly the same
// workloads and metrics.
func TestMetricCatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, set := range [][]Metric{endToEnd, perLayer} {
		for _, m := range set {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %q has an invalid name or unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better = %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
			if u, ok := unitOf(m.Name); !ok || u != m.Unit {
				t.Errorf("unitOf(%q) = %q, %v", m.Name, u, ok)
			}
		}
	}
	for _, m := range endToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	check := func(kind string, got []entry, want []Metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || math.Abs(g.Bound-m.Bound) > 1e-12 {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
