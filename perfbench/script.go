package main

import (
	"math/rand/v2"

	"penelope/internal/experiments"
)

// Workload sizes. They are fixed, so every seed does the same amount of
// work; the seed chooses which inputs (trace lengths, key order, fleet
// seeds) carry it.
const (
	// paper-all: every registry experiment at a reduced workload.
	paperTraceLength = 3000
	paperTraceStride = 48

	// serve-mix.
	corpusLengths   = 334 // store-hit corpus: distinct trace lengths, ×corpusExperiments
	corpusStride    = 531 // 1 trace per bank: the cheapest keyed jobs
	corpusLengthMin = 200 // corpus lengths are drawn from [200, 700)
	corpusSpan      = 500
	missLengths     = 24   // cold misses: distinct trace lengths, ×4 experiments
	missStride      = 90   // 6 traces per bank
	missLengthMin   = 800  // miss lengths are drawn from [800, 1600), disjoint from the corpus
	memoryHits      = 2000 // resubmissions of completed miss keys

	// fleet-aging.
	fleetPopulation  = 50000
	fleetTraceLength = 4000
	fleetTraceStride = 36
)

// serveExperiments are the cheap keyed experiments serve-mix submits as
// misses; corpusExperiments, the subset the set-up server persists for
// store hits (fig5's fixed adder-study cost would dominate set-up).
var (
	serveExperiments  = []string{"fig5", "fig6", "fig8", "mru"}
	corpusExperiments = []string{"fig6", "fig8", "mru"}
)

// Phase names of the serve-mix script.
const (
	phaseMiss     = "miss"
	phaseHit      = "hit"
	phaseStoreHit = "store_hit"
)

// Request is one job of the serve-mix script.
type Request struct {
	Phase      string              `json:"phase"`
	Experiment string              `json:"experiment"`
	Options    experiments.Options `json:"options"`
}

// ServeScript is the serve-mix input: the trace lengths of the corpus
// the set-up server persists (one sweep over them × corpusExperiments),
// then the three measured phases in order. Each phase is split between
// the clients round-robin.
type ServeScript struct {
	CorpusLengths []int       `json:"corpus_lengths"`
	Phases        [][]Request `json:"phases"`
}

// rng returns the generator for one input stream of one seed.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// distinctLengths draws n distinct trace lengths from [lo, lo+span).
func distinctLengths(r *rand.Rand, n, lo, span int) []int {
	perm := r.Perm(span)[:n]
	out := make([]int, n)
	for i, p := range perm {
		out[i] = lo + p
	}
	return out
}

// keyedRequests crosses trace lengths with experiments.
func keyedRequests(phase string, ids []string, lengths []int, stride int) []Request {
	var out []Request
	for _, l := range lengths {
		for _, id := range ids {
			out = append(out, Request{Phase: phase, Experiment: id,
				Options: experiments.Options{TraceLength: l, TraceStride: stride}})
		}
	}
	return out
}

// NewServeScript builds the serve-mix script for a seed.
func NewServeScript(seed uint64) ServeScript {
	r := rng(seed, 1)
	corpus := distinctLengths(r, corpusLengths, corpusLengthMin, corpusSpan)
	misses := keyedRequests(phaseMiss, serveExperiments, distinctLengths(r, missLengths, missLengthMin, 800), missStride)
	r.Shuffle(len(misses), func(i, j int) { misses[i], misses[j] = misses[j], misses[i] })

	hits := make([]Request, memoryHits)
	for i := range hits {
		hits[i] = misses[r.IntN(len(misses))]
		hits[i].Phase = phaseHit
	}
	storeHits := keyedRequests(phaseStoreHit, corpusExperiments, corpus, corpusStride)
	r.Shuffle(len(storeHits), func(i, j int) { storeHits[i], storeHits[j] = storeHits[j], storeHits[i] })
	return ServeScript{CorpusLengths: corpus, Phases: [][]Request{misses, hits, storeHits}}
}

// Size is the number of measured requests in the script.
func (s ServeScript) Size() int {
	n := 0
	for _, p := range s.Phases {
		n += len(p)
	}
	return n
}

// paperOptions is the paper-all workload. The seed picks the fleet
// seed of the lifetime and yield experiments; the trace workload is
// fixed so every seed costs the same.
func paperOptions(seed uint64) experiments.Options {
	return experiments.Options{TraceLength: paperTraceLength, TraceStride: paperTraceStride,
		FleetSeed: fleetSeed(seed, 2)}
}

// fleetOptions is the fleet-aging workload: both fleets age the same
// seed-chosen population, so the lifetime experiment at these options
// is their reference.
func fleetOptions(seed uint64) experiments.Options {
	return experiments.Options{TraceLength: fleetTraceLength, TraceStride: fleetTraceStride,
		Population: fleetPopulation, FleetSeed: fleetSeed(seed, 3)}
}

// fleetSeed derives a nonzero fleet seed for one input stream.
func fleetSeed(seed, stream uint64) uint64 {
	return rng(seed, stream).Uint64()>>11 | 1 // below 2^53: exact in any JSON reader
}
