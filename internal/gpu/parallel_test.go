package gpu

import (
	"fmt"
	"reflect"
	"testing"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/stats"
	"gpushare/internal/workloads"
)

// runWorkload builds a fresh simulator, executes the named workload at
// the given scale, verifies its functional outputs, and returns the run
// statistics.
func runWorkload(tb testing.TB, name string, cfg config.Config, scale int) *stats.GPU {
	tb.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	inst := spec.Build(scale)
	inst.Setup(sim.Mem)
	g, err := sim.Run(inst.Launch)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	if inst.Check != nil {
		if err := inst.Check(sim.Mem); err != nil {
			tb.Fatalf("%s: functional check: %v", name, err)
		}
	}
	return g
}

// engineCases are the workload/config pairs the engine-determinism
// tests sweep: sharing-heavy configurations on both sharing modes (the
// paths with the most cross-SM coupling through locks and ownership
// transfer) plus an unshared scheduler for the plain path.
var engineCases = []struct {
	name     string
	workload string
	slow     bool // skipped in -short mode (minutes under -race)
	cfg      func() config.Config
}{
	{"hotspot/reg-sharing-owf", "hotspot", true, func() config.Config {
		cfg := config.Default()
		cfg.Sharing, cfg.T = config.ShareRegisters, 0.1
		cfg.Sched = config.SchedOWF
		return cfg
	}},
	{"CONV2/smem-sharing-lrr", "CONV2", false, func() config.Config {
		cfg := config.Default()
		cfg.Sharing, cfg.T = config.ShareScratchpad, 0.1
		return cfg
	}},
	{"gaussian/unshared-gto", "gaussian", false, func() config.Config {
		cfg := config.Default()
		cfg.Sched = config.SchedGTO
		return cfg
	}},
}

// TestEngineDeterminism is the tentpole's correctness contract: the
// parallel cycle engine, snapshot mode and the sleep machinery are
// engine knobs, not simulation parameters. Every variant must produce
// statistics deep-equal — and, via the canonical JSON encoding,
// byte-identical — to the reference: the sequential engine with SM and
// memory sleep off, which ticks every SM and memory partition every
// cycle.
//
// The variant names are kept as stable test IDs from before the
// machine-global idle fast-forward was removed: "ff=on"/"ff=off" no
// longer select anything, and "workers=gomaxprocs" runs an explicit
// two-worker pool.
func TestEngineDeterminism(t *testing.T) {
	variants := []struct {
		name    string
		workers int
		noSnap  bool
		noSleep bool
	}{
		{"workers=1 ff=on", 1, false, false},
		{"workers=gomaxprocs ff=on", 2, false, false},
		{"workers=2 ff=off", 2, false, false},
		// NoSnapshot disables the ready-set engine's cached warp
		// snapshots and incremental rankings; the recompute path must
		// stay bit-identical (the reference runs with snapshots on).
		{"workers=1 ff=on nosnapshot", 1, true, false},
		{"workers=2 ff=off nosnapshot", 2, true, false},
		// NoSMSleep disables per-SM sleep/wake; the reference runs with
		// sleep off, so these legs prove the awake engine is unchanged
		// while the legs above prove sleep replays are exact.
		{"workers=1 ff=on nosleep", 1, false, true},
		{"workers=2 ff=off nosleep", 2, false, true},
	}
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("simulation-heavy")
			}
			refCfg := c.cfg()
			refCfg.SMWorkers = 1
			refCfg.NoSMSleep = true
			refCfg.NoMemSleep = true
			ref := runWorkload(t, c.workload, refCfg, 1)
			refJSON, err := ref.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				t.Run(v.name, func(t *testing.T) {
					cfg := c.cfg()
					cfg.SMWorkers = v.workers
					cfg.NoSnapshot = v.noSnap
					cfg.NoSMSleep = v.noSleep
					g := runWorkload(t, c.workload, cfg, 1)
					if !reflect.DeepEqual(ref, g) {
						t.Errorf("stats diverge from sequential reference:\n--- reference\n%s--- variant\n%s",
							ref.Report(), g.Report())
					}
					j, err := g.EncodeJSON()
					if err != nil {
						t.Fatal(err)
					}
					if string(j) != string(refJSON) {
						t.Error("canonical JSON encoding differs from sequential reference")
					}
				})
			}

			// Checkpoint/restore is an engine knob too: (a) taking
			// snapshots must not perturb the run, and (b) resuming from
			// any snapshot — under any worker count, sleep or
			// snapshot mode — must reproduce the straight-through bytes
			// exactly.
			t.Run("restore", func(t *testing.T) {
				stride := ref.Cycles / 4
				if stride < 1 {
					stride = 1
				}
				ckCfg := refCfg
				ckCfg.CheckpointStride = stride
				sink := checkpoint.NewMemSink()
				if j := encodeJSON(t, runWorkloadCK(t, c.workload, ckCfg, 1, sink, nil)); j != string(refJSON) {
					t.Fatal("enabling checkpoints changed the statistics")
				}
				cycles := sink.List()
				if len(cycles) == 0 {
					t.Fatalf("no checkpoints taken in %d cycles at stride %d", ref.Cycles, stride)
				}
				for _, cy := range sampleCycles(cycles, 6) {
					cfg := refCfg
					if j := encodeJSON(t, runWorkloadCK(t, c.workload, cfg, 1, nil, sink.Get(cy))); j != string(refJSON) {
						t.Errorf("restore at cycle %d diverges from straight-through", cy)
					}
				}
				mid := cycles[len(cycles)/2]
				for _, v := range variants {
					cfg := c.cfg()
					cfg.SMWorkers = v.workers
					cfg.NoSnapshot = v.noSnap
					cfg.NoSMSleep = v.noSleep
					if j := encodeJSON(t, runWorkloadCK(t, c.workload, cfg, 1, nil, sink.Get(mid))); j != string(refJSON) {
						t.Errorf("restore at cycle %d under %s diverges from straight-through", mid, v.name)
					}
				}
			})
		})
	}
}

// TestEngineWorkersValidation: a negative worker count is a
// configuration error, not a silent fallback.
func TestEngineWorkersValidation(t *testing.T) {
	cfg := config.Default()
	cfg.SMWorkers = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("SMWorkers=-1 accepted")
	}
}

// BenchmarkRunParallelSMs measures end-to-end wall-clock for a full
// sharing-mode simulation at several engine worker counts; the speedup
// of workers=8 over workers=1 is the tentpole's headline number
// (tools/bench.sh compares it against BENCH_baseline.json).
func BenchmarkRunParallelSMs(b *testing.B) {
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := config.Default()
			cfg.Sharing, cfg.T = config.ShareRegisters, 0.1
			cfg.Sched = config.SchedOWF
			cfg.SMWorkers = w
			spec, err := workloads.ByName("hotspot")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				inst := spec.Build(1)
				inst.Setup(sim.Mem)
				if _, err := sim.Run(inst.Launch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
