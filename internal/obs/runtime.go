package obs

import "runtime"

// runtimeStats are the Go runtime gauges (goroutines, heap, GC).
type runtimeStats struct {
	Goroutines  int     `metric:"gauge penelope_goroutines" help:"Number of live goroutines."`
	HeapAlloc   uint64  `metric:"gauge penelope_heap_alloc_bytes" help:"Bytes of allocated heap objects."`
	HeapObjects uint64  `metric:"gauge penelope_heap_objects" help:"Number of allocated heap objects."`
	NumGC       uint32  `metric:"counter penelope_gc_runs_total" help:"Completed GC cycles since process start."`
	PauseTotal  float64 `metric:"gauge penelope_gc_pause_total_seconds" help:"Cumulative GC stop-the-world pause time in seconds."`
}

// RegisterRuntimeMetrics adds Go runtime gauges (goroutines, heap, GC)
// to a registry. One runtime.ReadMemStats serves every family of a
// scrape.
func RegisterRuntimeMetrics(r *Registry) {
	RegisterStats(r, func() runtimeStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return runtimeStats{
			Goroutines:  runtime.NumGoroutine(),
			HeapAlloc:   ms.HeapAlloc,
			HeapObjects: ms.HeapObjects,
			NumGC:       ms.NumGC,
			PauseTotal:  float64(ms.PauseTotalNs) / 1e9,
		}
	})
}
