package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"time"

	"penelope/internal/experiments"
	"penelope/internal/fleetops"
	"penelope/internal/lifetime"
)

// fleetNames are the two registered populations and their schedules.
var fleetNames = []string{"penelope", "baseline"}

// fleetFollow is what the client saw of one fleet's event stream.
type fleetFollow struct {
	epochs []lifetime.EpochStats
	times  []time.Time // publish time of each epoch event
	events int
	err    error
}

// fleetRep registers the penelope and baseline fleets with back-to-back
// ticks, duty-deviation and p99 alerts armed, and follows each on its
// NDJSON event stream until its schedule completes. Set-up is the
// server boot plus the fleet config warm-up for the fleets' options.
func fleetRep(seed uint64, dir string, tr *Tracer) RepResult {
	var r RepResult
	o := fleetOptions(seed)

	sw := startWatch()
	srv, err := startServer(dir, 0)
	if err != nil {
		r.fail("booting server: %v", err)
		return r
	}
	defer srv.close()
	sp := tr.Start(nil, "setup", "experiments", "FleetConfig")
	experiments.FleetConfig(o, true)
	experiments.FleetConfig(o, false)
	sp.End()
	r.SetupS, r.SetupRawS = sw.read()

	c := newClients(srv.base, 1, tr)[0]
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	follows := make([]fleetFollow, len(fleetNames))
	var wg sync.WaitGroup
	settle()
	sw = startWatch()
	for i, name := range fleetNames {
		r.Attempted++
		reg := fleetops.Registration{
			Name: name, Fleet: name, Options: o,
			Interval:      fleetops.Duration(time.Nanosecond),
			EpochsPerTick: 1,
			Alerts: fleetops.AlertRules{
				P99Guardband:  0.12,
				DutyTolerance: fleetops.DefaultDutyTolerance,
			},
		}
		body, _ := json.Marshal(reg)
		status, b, err := c.call(nil, http.MethodPost, "POST /v1/fleets", "/v1/fleets", body)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("HTTP %d: %s", status, b)
		}
		if err != nil {
			r.fail("registering %s: %v", name, err)
			follows[i].err = err
			continue
		}
		wg.Add(1)
		go func(f *fleetFollow, name string) {
			defer wg.Done()
			var decodeErr error
			err := c.streamEvents(ctx, "/v1/fleets/"+name+"/events.ndjson", func(ev streamEvent) bool {
				tr.Record(name, "fleetops", "event:"+ev.Type, ev.Time, 0, nil)
				f.events++
				switch ev.Type {
				case "epoch":
					var row fleetops.EpochEvent
					if decodeErr = json.Unmarshal(ev.Data, &row); decodeErr != nil {
						return false
					}
					f.epochs = append(f.epochs, row.EpochStats)
					f.times = append(f.times, ev.Time)
				case "state":
					var st fleetops.StateEvent
					if err := json.Unmarshal(ev.Data, &st); err == nil && st.State == fleetops.StateDone {
						return false
					}
				}
				return true
			})
			if f.err = err; decodeErr != nil {
				f.err = decodeErr
			}
		}(&follows[i], name)
	}
	wg.Wait()
	r.WallS, r.WallRawS = sw.read()

	// Tick time is the gap between consecutive epoch events of a fleet.
	epochs := 0
	for _, f := range follows {
		epochs += len(f.epochs)
		for i := 1; i < len(f.times); i++ {
			r.OpMS = append(r.OpMS, ms(f.times[i].Sub(f.times[i-1])))
		}
	}
	chipEpochs := float64(epochs) * float64(fleetPopulation) / r.WallRawS
	r.Detail = map[string]float64{
		"tick_p50_ms":       median(r.OpMS),
		"chip_epochs_per_s": chipEpochs,
	}

	// Correctness, off the clock: every epoch arrived, no tick failed,
	// and each fleet's final row equals the lifetime experiment's.
	ref := experiments.Lifetime(o)
	want := map[string][]lifetime.EpochStats{"penelope": ref.Penelope.Epochs, "baseline": ref.Baseline.Epochs}
	for i, name := range fleetNames {
		f := follows[i]
		r.Attempted += len(want[name])
		if f.err != nil {
			r.fail("following %s: %v", name, f.err)
		}
		if len(f.epochs) != len(want[name]) {
			r.fail("%s: %d epoch events, want %d", name, len(f.epochs), len(want[name]))
			continue
		}
		if !reflect.DeepEqual(f.epochs[len(f.epochs)-1], want[name][len(want[name])-1]) {
			r.fail("%s: final epoch row differs from the lifetime experiment", name)
		}
		status, b, err := c.call(nil, http.MethodGet, "GET /v1/fleets/{name}", "/v1/fleets/"+name, nil)
		var st fleetops.Status
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(b, &st)
		} else if err == nil {
			err = fmt.Errorf("HTTP %d", status)
		}
		switch {
		case err != nil:
			r.fail("status of %s: %v", name, err)
		case st.TickFailures > 0 || st.WatchdogTimeouts > 0:
			r.fail("%s: %d tick failures, %d watchdog timeouts", name, st.TickFailures, st.WatchdogTimeouts)
		}
	}

	if tr != nil {
		events := 0
		for _, f := range follows {
			events += f.events
		}
		r.Layer = map[string]float64{
			"fleetops.tick_p50_ms":       r.Detail["tick_p50_ms"],
			"fleetops.tick_p95_ms":       quantile(r.OpMS, 0.95),
			"fleetops.tick_n":            float64(len(r.OpMS)),
			"fleetops.chip_epochs_per_s": chipEpochs,
			"fleetops.events":            float64(events),
		}
		status, b, err := c.call(nil, http.MethodGet, "GET /metrics.json", "/metrics.json", nil)
		var m struct {
			Fleet struct {
				Bus fleetops.BusStats `json:"bus"`
			} `json:"fleet"`
		}
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(b, &m)
		} else if err == nil {
			err = fmt.Errorf("HTTP %d", status)
		}
		if err != nil {
			r.fail("reading /metrics.json: %v", err)
		} else {
			r.Layer["fleetops.bus_dropped"] = float64(m.Fleet.Bus.Dropped)
		}
	}
	return r
}
