// Command perfbench is the repository benchmark. It measures three
// workloads end to end — the paper's experiments in process, a mixed
// job load through the HTTP service, and two fleets aged through the
// continuous scheduler — and, in a separate traced run, times the calls
// into each layer. See README.md for the workloads and metrics.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload paper-all --seed 1 --seconds 30 --trace 0
//
// Every repetition runs in a fresh child process, because the trace
// bank, duty profile and lifetime memos are process-wide. The last line
// of standard output is a JSON object with the operation counts, the
// correctness verdict and the metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workloads are the benchmark's workloads in report order.
var workloads = []string{"paper-all", "serve-mix", "fleet-aging"}

// probeRep is the child mode that runs the direct per-layer probes.
const probeRep = "probe"

const (
	minReps = 3
	// runBudget bounds one whole run, children included.
	runBudget = 170 * time.Second
	// workDir holds the benchmark's scratch data and trace files,
	// relative to the repository root.
	workDir = ".bench_build"
)

// RepResult is what one child process reports about one repetition.
// SetupS and WallS are net of hypervisor steal (see stopwatch); the Raw
// fields are the plain wall-clock times.
type RepResult struct {
	Workload  string             `json:"workload"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	SetupRawS float64            `json:"setup_raw_s"`
	WallRawS  float64            `json:"wall_raw_s"`
	OpMS      []float64          `json:"op_ms"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Detail    map[string]float64 `json:"detail,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	// RSSMB is the child's peak resident set, filled in by the parent.
	RSSMB float64 `json:"-"`
}

func (r *RepResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Output is the benchmark's last line.
type Output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: paper-all, serve-mix or fleet-aging")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time of an untraced run")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	rep := flag.String("rep", "", "internal: run one repetition of this workload in this process")
	index := flag.Int("index", 0, "internal: repetition index")
	flag.Parse()

	if *rep != "" {
		os.Exit(childMain(*rep, *seed, *index, *traced == 1))
	}
	if !validWorkload(*workload) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloads)
		os.Exit(2)
	}
	os.Exit(parentMain(*workload, *seed, *seconds, *traced == 1))
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

// parentMain runs the repetitions as child processes and prints the
// report. It exits nonzero, without a result line, when the benchmark
// cannot run at all.
func parentMain(workload string, seed uint64, seconds int, traced bool) int {
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(root, "internal", "experiments", "testdata")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 1
	}
	// Children die with the run: on the budget, or when the run itself
	// is interrupted or terminated.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	stamp := newStamp(root, workload, seed, traced)
	if b, err := json.Marshal(stamp); err == nil {
		fmt.Printf("stamp %s\n", b)
	}

	// paper-all first replays the committed goldens, in this process,
	// so the repetitions' memos stay cold.
	var goldens int
	var goldenErrs []string
	if workload == "paper-all" {
		goldens, goldenErrs = checkGoldens(root)
		for _, e := range goldenErrs {
			fmt.Fprintln(os.Stderr, "perfbench: golden:", e)
		}
	}
	var out Output
	if traced {
		out, err = tracedRun(ctx, workload, seed)
	} else {
		out, err = measuredRun(ctx, workload, seed, seconds)
	}
	out.Attempted += goldens
	out.Failed += len(goldenErrs)
	out.Correct = out.Correct && len(goldenErrs) == 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := out.Metrics[name]
		fmt.Printf("metric %-28s %14.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Printf("ops attempted %d succeeded %d failed %d correct %v\n",
		out.Attempted, out.Attempted-out.Failed, out.Failed, out.Correct)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measuredRun repeats the workload in fresh processes for the given
// time (at least minReps times) and reports the end-to-end metrics:
// medians over repetitions, and the latency median over the pooled
// operations of every repetition.
func measuredRun(ctx context.Context, workload string, seed uint64, seconds int) (Output, error) {
	out := Output{Metrics: map[string]Value{}}
	correct := true
	var reps []RepResult
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(reps) < minReps || time.Now().Before(deadline) {
		r, err := runChild(ctx, workload, seed, len(reps), false)
		if err != nil {
			return out, err
		}
		reps = append(reps, r)
	}
	var setup, wall, rss, ops []float64
	details := map[string][]float64{}
	for i, r := range reps {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, e := range r.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: rep %d: %s\n", i, e)
		}
		if r.Digest != reps[0].Digest {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: rep %d digest %s differs from rep 0 digest %s\n", i, r.Digest, reps[0].Digest)
		}
		fmt.Printf("rep %d setup_s %.6f (raw %.6f) wall_s %.6f (raw %.6f) op_p50_ms %.6f peak_rss_mb %.3f\n",
			i, r.SetupS, r.SetupRawS, r.WallS, r.WallRawS, median(r.OpMS), r.RSSMB)
		setup = append(setup, r.SetupS)
		wall = append(wall, r.WallS)
		rss = append(rss, r.RSSMB)
		ops = append(ops, r.OpMS...)
		for k, v := range r.Detail {
			details[k] = append(details[k], v)
		}
	}
	fmt.Printf("reps %d seconds %d digest %s\n", len(reps), seconds, reps[0].Digest)
	for _, k := range sortedKeys(details) {
		fmt.Printf("detail %-28s %14.6g (median of %d reps)\n", k, median(details[k]), len(details[k]))
	}
	set := func(name string, v float64) {
		unit, _ := unitOf(name)
		out.Metrics[name] = Value{v, unit}
	}
	set("setup_s", median(setup))
	set("wall_s", median(wall))
	set("op_p50_ms", median(ops))
	set("peak_rss_mb", median(rss))
	for _, m := range endToEnd {
		if v := out.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: metric %s = %v\n", m.Name, v)
		}
	}
	out.Correct = correct && out.Failed == 0
	return out, nil
}

// tracedRun gives the per-layer metrics: one traced repetition of every
// workload (each layer is measured on the workload that exercises it),
// the direct layer probes, and the tracing overhead on the named
// workload against an untraced repetition run just before.
func tracedRun(ctx context.Context, workload string, seed uint64) (Output, error) {
	out := Output{Metrics: map[string]Value{}}
	correct := true
	plain, err := runChild(ctx, workload, seed, 0, false)
	if err != nil {
		return out, err
	}
	all := []RepResult{plain}
	var tracedWall float64
	for _, w := range append(append([]string(nil), workloads...), probeRep) {
		r, err := runChild(ctx, w, seed, 0, true)
		if err != nil {
			return out, err
		}
		if w == workload {
			tracedWall = r.WallS
			if r.Digest != plain.Digest {
				correct = false
				fmt.Fprintf(os.Stderr, "perfbench: traced digest %s differs from untraced %s\n", r.Digest, plain.Digest)
			}
		}
		all = append(all, r)
	}
	layer := map[string]float64{"bench.trace_overhead_pct": (tracedWall/plain.WallS - 1) * 100}
	for _, r := range all {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, e := range r.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.Workload, e)
		}
		for k, v := range r.Layer {
			layer[k] = v
		}
	}
	for _, m := range perLayer {
		v, ok := layer[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: per-layer metric %s missing or not finite (%v)\n", m.Name, v)
			continue
		}
		out.Metrics[m.Name] = Value{v, m.Unit}
	}
	out.Correct = correct && out.Failed == 0
	return out, nil
}

// runChild runs one repetition in a fresh process and reads its result
// from the last line of the child's standard output.
func runChild(ctx context.Context, rep string, seed uint64, index int, traced bool) (RepResult, error) {
	self, err := os.Executable()
	if err != nil {
		return RepResult{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--rep", rep, "--seed", strconv.FormatUint(seed, 10),
		"--index", strconv.Itoa(index), "--trace", tr)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return RepResult{}, fmt.Errorf("%s repetition %d: %w", rep, index, err)
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r RepResult
	if err := json.Unmarshal(last, &r); err != nil {
		return RepResult{}, fmt.Errorf("%s repetition %d: bad result line: %w", rep, index, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// childMain runs one repetition and prints its RepResult.
func childMain(rep string, seed uint64, index int, traced bool) int {
	var tr *Tracer
	if traced {
		tr = newTracer()
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch := filepath.Join(root, workDir, "run", fmt.Sprintf("%s-%d", rep, os.Getpid()))
	defer os.RemoveAll(scratch)
	quietLogs()

	var r RepResult
	switch rep {
	case "paper-all":
		r = paperRep(seed, tr)
	case "serve-mix":
		r = serveRep(seed, scratch, tr)
	case "fleet-aging":
		r = fleetRep(seed, scratch, tr)
	case probeRep:
		r = probeLayers(seed, scratch, tr)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown repetition %q\n", rep)
		return 2
	}
	r.Workload = rep
	if tr != nil {
		path := filepath.Join(root, workDir, "traces", fmt.Sprintf("%s-seed%d-%d.json", rep, seed, index))
		if err := tr.WriteFile(path, newStamp(root, rep, seed, true)); err != nil {
			r.fail("writing spans: %v", err)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
