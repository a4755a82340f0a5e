package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is not modified; an empty slice gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// settle collects the garbage the previous phase left, so whether a
// collection cycle lands inside a short measured phase does not depend
// on what ran before it. The phase's own garbage still counts.
func settle() { runtime.GC() }

// stopwatch times an interval of wall-clock time, and the CPU time the
// hypervisor stole from this machine's CPUs during it (the steal column
// of /proc/stat; 0 where the kernel reports none).
type stopwatch struct {
	start time.Time
	steal float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), stolenSeconds()} }

// read returns the interval's wall time net of steal, and its raw wall
// time, in seconds. Steal is summed over all CPUs, so the wall time the
// benchmark lost to it is the sum divided by the CPU count.
func (w stopwatch) read() (net, raw float64) {
	raw = time.Since(w.start).Seconds()
	lost := (stolenSeconds() - w.steal) / float64(runtime.NumCPU())
	if lost < 0 || lost >= raw {
		return raw, raw
	}
	return raw - lost, raw
}

// stolenSeconds is the machine's cumulative steal time, summed over its
// CPUs, from the aggregate line of /proc/stat (in USER_HZ = 100 ticks).
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100
}
