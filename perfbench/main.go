// Command perfbench is gpushare's end-to-end benchmark. It drives the
// gpushare/internal packages from outside, timing the calls it makes
// into each layer, and never changes program code. Run it through
// run.sh from the repository root:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones
// of a separate traced run. README.md explains the workloads and the
// layer-to-metric mapping.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"gpushare/internal/runner"
)

// bench is one invocation's settings and accumulated results.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string
	tmpDir   string

	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	digests   *digestSet
	notes     []string
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// failf counts one failed operation and says why.
func (b *bench) failf(format string, args ...any) {
	b.failed++
	b.notef("FAILED: "+format, args...)
}

var workloadRuns = map[string]func(*bench) error{
	wlSweep:   runPaperSweep,
	wlKernel:  runKernel,
	wlService: runService,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-sweep, kernel-membound or service")
		seed    = flag.Int64("seed", 1, "seed for the service request mix and order")
		seconds = flag.Int("seconds", 30, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced, per-layer variant")
		work    = flag.String("work", ".bench_build", "directory for traces, results and scratch files")
	)
	flag.Parse()

	if env := gpushareEnv(); len(env) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to run with %s set: these switch the simulator into a different mode (auditing, sleep off), so the numbers would not measure the shipped program; unset them and retry\n", strings.Join(env, ", "))
		os.Exit(2)
	}
	run, ok := workloadRuns[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paper-sweep|kernel-membound|service, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		outDir: filepath.Join(*work, "out"), tmpDir: filepath.Join(*work, "tmp"),
		e2e: map[string]float64{}, layer: map[string]float64{}, digests: newDigestSet(),
	}
	for _, d := range []string{b.outDir, b.tmpDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	host := hostInfo(b)
	hb, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hb)

	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	for _, n := range b.notes {
		fmt.Println(n)
	}
	defs, vals := endToEnd, b.e2e
	if b.traced {
		defs, vals = perLayer, b.layer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && b.traced {
			v, ok = 0, true // a layer this workload does not reach
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", b.workload, d.Name)
			os.Exit(1)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		if b.traced {
			fmt.Printf("  %-28s %14.4f %-9s moves %s on %s\n", d.Name, v, d.Unit, d.Moves, d.On)
		} else {
			fmt.Printf("  %-20s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	fmt.Printf("digests: %d jobs, combined %s\n", len(b.digests.byLabel), b.digests.combined())
	fmt.Printf("ops: attempted %d, failed %d\n", b.attempted, b.failed)

	result := map[string]any{
		"correct": b.failed == 0, "attempted": b.attempted, "failed": b.failed,
		"metrics": metrics,
	}
	record := map[string]any{"host": host, "result": result, "digests": b.digests.byLabel, "notes": b.notes}
	path := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, *trace))
	if rb, err := json.MarshalIndent(record, "", "  "); err == nil {
		if err := os.WriteFile(path, rb, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// gpushareEnv lists the GPUSHARE_* variables set in the environment.
func gpushareEnv() []string {
	var out []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GPUSHARE_") {
			out = append(out, strings.SplitN(kv, "=", 2)[0])
		}
	}
	sort.Strings(out)
	return out
}

// hostInfo is the fingerprint recorded with every result.
func hostInfo(b *bench) map[string]any {
	commit := "unknown (built outside a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds.Seconds(), "trace": b.traced,
		"commit": commit, "sim_fingerprint": runner.Fingerprint(),
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapAllocated returns the bytes the Go heap has allocated so far.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func gcCycles() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// setupBatch is how many set-up samples a run takes at each of the
// points where it samples set-up; every workload samples at two points
// or more, so setup_s is the median of 20 samples or more.
const setupBatch = 10

// repeat runs unit until the budget is spent: it starts another unit
// only while the median unit so far would still end within the budget,
// and always runs at least min units.
func repeat(budget time.Duration, min int, unit func() error) error {
	start := time.Now()
	var took []float64
	for {
		t0 := time.Now()
		if err := unit(); err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds())
		next := time.Since(start).Seconds() + median(took)
		if len(took) >= min && next > budget.Seconds() {
			return nil
		}
	}
}

// tracedRun is the shared shape of every --trace 1 run: one untraced
// pass, then the same pass again with spans and the CPU profile on.
// It records the tracing overhead and the per-layer CPU shares and
// returns the traced pass's tracer; the caller adds what it measures
// after the pass and then calls writeTrace.
func (b *bench) tracedRun(pass func(tr *tracer) (time.Duration, error)) (*tracer, error) {
	plain, err := pass(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	gc0 := gcCycles()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced, err := pass(tr)
	byLayer, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	cpuShares(byLayer, b.layer)
	b.layer["go-runtime.gc_cycles"] = float64(gcCycles() - gc0)
	b.layer["trace.overhead_s"] = (traced - plain).Seconds()
	b.layer["trace.spans"] = float64(tr.count())
	b.notef("tracing overhead: traced pass %.3f s - untraced pass %.3f s = %+.3f s",
		traced.Seconds(), plain.Seconds(), (traced - plain).Seconds())
	return tr, nil
}

// writeTrace stores the traced run's spans beside its result record.
func (b *bench) writeTrace(tr *tracer) error {
	path := filepath.Join(b.outDir, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	b.notef("span trace (Chrome trace-event JSON, opens in Perfetto): %s", path)
	return nil
}
