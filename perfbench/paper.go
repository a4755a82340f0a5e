package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"penelope/internal/experiments"
)

// paperTimed are the experiments whose run time the traced run reports
// (the rest take well under a millisecond).
var paperTimed = []string{"fig5", "fig6", "fig8", "mru", "table3", "efficiency", "vmin", "lifetime", "yield"}

// goldenOptions are the options the committed experiment goldens were
// recorded at (the experiments package's golden tests use the same).
var goldenOptions = experiments.Options{TraceLength: 2000, TraceStride: 90, Population: 600}

// checkGoldens replays every committed golden payload and byte-compares
// it with the file. It returns how many were checked and the failures.
func checkGoldens(root string) (int, []string) {
	files, err := filepath.Glob(filepath.Join(root, "internal", "experiments", "testdata", "*_golden.json"))
	if err != nil || len(files) == 0 {
		return 1, []string{fmt.Sprintf("no golden payloads found (%v)", err)}
	}
	sort.Strings(files)
	var errs []string
	for _, f := range files {
		id := strings.TrimSuffix(filepath.Base(f), "_golden.json")
		want, err := os.ReadFile(f)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		res, err := experiments.Run(id, goldenOptions)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		got, err := experiments.NewPayload(res, goldenOptions).Marshal()
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		if !bytes.Equal(got, want) {
			errs = append(errs, fmt.Sprintf("%s: payload differs from %s (%d vs %d bytes)", id, f, len(got), len(want)))
		}
	}
	return len(files), errs
}

// paperRep runs every registry experiment once, in report order, the
// way `penelope run -experiment all -json` does. Set-up is the fleet
// config warm-up: the shared trace bank, the fleet duty profiles and
// the compiled adder.
func paperRep(seed uint64, tr *Tracer) RepResult {
	var r RepResult
	o := paperOptions(seed)

	sw := startWatch()
	sp := tr.Start(nil, "setup", "experiments", "FleetConfig")
	experiments.FleetConfig(o, true)
	sp.End()
	r.SetupS, r.SetupRawS = sw.read()

	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	digest := sha256.New()
	settle()
	sw = startWatch()
	for _, spec := range experiments.Experiments() {
		r.Attempted++
		sp := tr.Start(nil, "paper", "experiments", spec.ID)
		t := time.Now()
		res, err := experiments.Run(spec.ID, o)
		var payload []byte
		if err == nil {
			payload, err = experiments.NewPayload(res, o).MarshalCompact()
		}
		d := time.Since(t)
		sp.End()
		if err != nil {
			r.fail("%s: %v", spec.ID, err)
			continue
		}
		r.OpMS = append(r.OpMS, ms(d))
		digest.Write(payload)
		digest.Write([]byte{'\n'})
	}
	r.WallS, r.WallRawS = sw.read()
	r.Digest = hex.EncodeToString(digest.Sum(nil))
	r.Detail = map[string]float64{"experiments_per_s": float64(r.Attempted) / r.WallRawS}

	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.Layer = map[string]float64{
			"experiments.fleet_config_s": r.SetupS,
			"experiments.alloc_mb":       mb(after.TotalAlloc - before.TotalAlloc),
		}
		for _, id := range paperTimed {
			if d := tr.Durations("experiments", id); len(d) > 0 {
				r.Layer["experiments."+id+"_s"] = d[0] / 1000
			}
		}
	}
	return r
}
