package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"penelope/internal/experiments"
	"penelope/internal/lifetime"
	"penelope/internal/pipeline"
	"penelope/internal/sched"
	"penelope/internal/store"
	"penelope/internal/trace"
)

const (
	probePasses = 5   // pipeline passes per configuration
	probeEpochs = 20  // lifetime steps, snapshots and checkpoint writes
	probeFrames = 400 // store puts and gets
)

// timeIt runs fn under a span and returns its wall time.
func timeIt(tr *Tracer, layer, name string, fn func()) time.Duration {
	sp := tr.Start(nil, "probe", layer, name)
	t := time.Now()
	fn()
	d := time.Since(t)
	sp.End()
	return d
}

// probeLayers calls each layer's public functions directly, at the
// sizes the workloads use, and reports medians.
func probeLayers(seed uint64, dir string, tr *Tracer) RepResult {
	var r RepResult
	r.Layer = map[string]float64{}

	// trace: record the paper-all bank.
	po := paperOptions(seed)
	var bank *trace.Bank
	d := timeIt(tr, "trace", "NewBank", func() { bank = trace.NewBank(po.TraceLength, po.TraceStride) })
	r.Layer["trace.bank_s"] = d.Seconds()
	r.Layer["trace.bank_mb"] = mb(uint64(bank.Bytes()))
	r.Attempted++

	// pipeline: one RunBatch over the whole bank, baseline and with ISV
	// plus a scheduler plan built from the baseline pass.
	var results []pipeline.Result
	var passes, isvPasses, allocs []float64
	for i := 0; i < probePasses; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := timeIt(tr, "pipeline", "RunBatch", func() {
			results = pipeline.RunBatch(pipeline.DefaultConfig(), bank.Sources(), 0)
		})
		runtime.ReadMemStats(&after)
		passes = append(passes, d.Seconds())
		allocs = append(allocs, mb(after.TotalAlloc-before.TotalAlloc))
		r.Attempted++
	}
	isv := pipeline.DefaultConfig()
	isv.EnableISV = true
	isv.SchedPlan = sched.BuildPlan(results[0].Sched)
	for i := 0; i < probePasses; i++ {
		d := timeIt(tr, "pipeline", "RunBatch:isv", func() { pipeline.RunBatch(isv, bank.Sources(), 0) })
		isvPasses = append(isvPasses, d.Seconds())
		r.Attempted++
	}
	r.Layer["pipeline.pass_s"] = median(passes)
	r.Layer["pipeline.pass_isv_s"] = median(isvPasses)
	r.Layer["pipeline.pass_alloc_mb"] = median(allocs)

	// lifetime and store checkpoints at the fleet-aging population.
	st, err := store.Open(dir)
	if err != nil {
		r.fail("opening store: %v", err)
		return r
	}
	defer st.Close()
	eng, err := lifetime.New(experiments.FleetConfig(fleetOptions(seed), true))
	if err != nil {
		r.fail("building fleet engine: %v", err)
		return r
	}
	var steps, snaps, writes []float64
	var snapBytes int
	for i := 0; i < probeEpochs && !eng.Done(); i++ {
		steps = append(steps, ms(timeIt(tr, "lifetime", "Step", func() { eng.Step(0) })))
		var snap []byte
		snaps = append(snaps, ms(timeIt(tr, "lifetime", "Snapshot", func() { snap, err = eng.Snapshot() })))
		if err != nil {
			r.fail("snapshot: %v", err)
			return r
		}
		snapBytes = len(snap)
		writes = append(writes, ms(timeIt(tr, "store", "WriteFleetCheckpoint", func() {
			err = st.WriteFleetCheckpoint("probe", snap)
		})))
		r.Attempted++
		if err != nil {
			r.fail("checkpoint write: %v", err)
		}
	}
	r.Layer["lifetime.step_ms"] = median(steps)
	r.Layer["lifetime.snapshot_ms"] = median(snaps)
	r.Layer["lifetime.snapshot_mb"] = mb(uint64(snapBytes))
	r.Layer["store.checkpoint_write_ms"] = median(writes)

	// store: result frames of the serve-mix experiments at a miss size.
	mo := experiments.Options{TraceLength: missLengthMin, TraceStride: missStride}
	var frames [][]byte
	for _, id := range serveExperiments {
		res, err := experiments.Run(id, mo)
		if err != nil {
			r.fail("%s: %v", id, err)
			return r
		}
		b, err := experiments.NewPayload(res, mo).Marshal()
		if err != nil {
			r.fail("%s: %v", id, err)
			return r
		}
		frames = append(frames, b)
	}
	key := func(i int) string { return fmt.Sprintf("%064x", i+1) }
	var puts, gets []float64
	for i := 0; i < probeFrames; i++ {
		puts = append(puts, ms(timeIt(tr, "store", "Put", func() { err = st.Put(key(i), frames[i%len(frames)]) })))
		r.Attempted++
		if err != nil {
			r.fail("put: %v", err)
		}
	}
	for i := 0; i < probeFrames; i++ {
		var got []byte
		var ok bool
		gets = append(gets, ms(timeIt(tr, "store", "Get", func() { got, ok = st.Get(key(i)) })))
		r.Attempted++
		if !ok || !bytes.Equal(got, frames[i%len(frames)]) {
			r.fail("get %s: missing or differs from the frame put", key(i))
		}
	}
	r.Layer["store.put_ms"] = median(puts)
	r.Layer["store.get_ms"] = median(gets)
	return r
}
