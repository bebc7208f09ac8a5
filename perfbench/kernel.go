package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpushare/internal/config"
	"gpushare/internal/gpu"
	"gpushare/internal/harness"
	"gpushare/internal/stats"
	"gpushare/internal/workloads"
)

// kernelWorkload is the kernel-membound workload's kernel: MUM is the
// most memory-bound of the paper's applications.
const kernelWorkload = "MUM"

// kernelRun is one gsim-style simulation of the kernel.
type kernelRun struct {
	setup, run, total time.Duration
	allocMB           float64
	stats             *stats.GPU
	checkErr          error
}

// kernelOnce does what gsim -workload MUM does: a fresh simulator at
// the Table I configuration with every engine knob at its default,
// inputs generated and staged, the kernel run, outputs checked.
func kernelOnce(tr *tracer, sleeps *atomic.Int64, id string) (*kernelRun, error) {
	spec, err := workloads.ByName(kernelWorkload)
	if err != nil {
		return nil, err
	}
	r := &kernelRun{}
	alloc0 := heapAllocated()
	t0 := time.Now()
	end := tr.begin("gpu.new", "gpu", id, 0)
	sim, err := gpu.New(config.Default())
	end()
	if err != nil {
		return nil, err
	}
	if sleeps != nil {
		sim.SleepTrace = func(int, int64, int64) { sleeps.Add(1) }
	}
	end = tr.begin("workloads.setup", "workloads", id, 0)
	inst := spec.Build(1)
	inst.Setup(sim.Mem)
	end()
	t1 := time.Now()
	end = tr.begin("gpu.run", "gpu", id, 0)
	r.stats, err = sim.Run(inst.Launch)
	end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", kernelWorkload, err)
	}
	t2 := time.Now()
	end = tr.begin("workloads.check", "workloads", id, 0)
	r.checkErr = inst.Check(sim.Mem)
	end()
	r.setup, r.run, r.total = t1.Sub(t0), t2.Sub(t1), time.Since(t0)
	r.allocMB = float64(heapAllocated()-alloc0) / 1e6
	return r, nil
}

// recordKernel checks one run and folds it into the digest set.
func (b *bench) recordKernel(r *kernelRun) {
	b.attempted++
	if r.checkErr != nil {
		b.failf("%s functional check: %v", kernelWorkload, r.checkErr)
		return
	}
	d, err := digest(r.stats)
	if err != nil {
		b.failf("%s: %v", kernelWorkload, err)
		return
	}
	if !b.digests.add(kernelWorkload+"/Table-I", d) {
		b.failf("%s: statistics differ between repetitions", kernelWorkload)
	}
}

func runKernel(b *bench) error {
	if b.traced {
		var runs []*kernelRun
		var sleeps atomic.Int64
		tr, err := b.tracedRun(func(tr *tracer) (time.Duration, error) {
			var s *atomic.Int64
			if tr != nil {
				s = &sleeps
			}
			var took []float64
			err := repeat(b.seconds/2, 1, func() error {
				r, err := kernelOnce(tr, s, fmt.Sprintf("run-%d", len(took)))
				if err != nil {
					return err
				}
				b.recordKernel(r)
				took = append(took, r.total.Seconds())
				if tr != nil {
					runs = append(runs, r)
				}
				return nil
			})
			return time.Duration(median(took) * float64(time.Second)), err
		})
		if err != nil {
			return err
		}
		var sc simCounters
		var runMs []float64
		for _, r := range runs {
			sc.add(r.stats, config.Default().NumSchedulers)
			runMs = append(runMs, ms(r.run))
		}
		sc.into(b.layer)
		b.layer["gpu.run_ms"] = median(runMs)
		b.layer["gpu.sleep_entries"] = float64(sleeps.Load()) / float64(len(runs))
		b.layer["gpu.host_ns_per_warp_instr"] = ratio(sum(runMs)*1e6, float64(sc.warpInstrs))
		b.layer["workloads.setup_ms"] = median(tr.durations("workloads.setup"))
		b.layer["workloads.check_ms"] = median(tr.durations("workloads.check"))
		b.notef("traced pass: %d run(s) of %s; gpu.run_ms is their median, gpu.sleep_entries a per-run mean", len(runs), kernelWorkload)
		b.gainProbe()
		return b.writeTrace(tr)
	}

	// Set-up is cheap next to a run, so it is sampled on throwaway
	// simulators before and after the measured runs as well as on every
	// measured run.
	spec, err := workloads.ByName(kernelWorkload)
	if err != nil {
		return err
	}
	var setups []float64
	sampleSetup := func() error {
		for i := 0; i < setupBatch; i++ {
			t0 := time.Now()
			sim, err := gpu.New(config.Default())
			if err != nil {
				return err
			}
			spec.Build(1).Setup(sim.Mem)
			setups = append(setups, time.Since(t0).Seconds())
		}
		return nil
	}
	if err := sampleSetup(); err != nil {
		return err
	}
	var runs []*kernelRun
	err = repeat(b.seconds, 3, func() error {
		r, err := kernelOnce(nil, nil, "")
		if err != nil {
			return err
		}
		b.recordKernel(r)
		runs = append(runs, r)
		setups = append(setups, r.setup.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	if err := sampleSetup(); err != nil {
		return err
	}
	var totals, rates, allocs, done []float64
	for _, r := range runs {
		totals = append(totals, r.total.Seconds())
		rates = append(rates, float64(r.stats.Cycles)/r.run.Seconds())
		allocs = append(allocs, r.allocMB)
		done = append(done, ms(r.total))
	}
	b.e2e["wall_s"] = median(totals)
	b.e2e["sim_cycles_per_s"] = median(rates)
	b.e2e["done_p50_ms"] = percentile(done, 50)
	b.e2e["done_p95_ms"] = percentile(done, 95)
	b.e2e["jobs_per_s"] = float64(len(runs)) / sum(totals)
	b.e2e["alloc_mb"] = median(allocs)
	b.e2e["setup_s"] = median(setups)
	b.notef("%d run(s) of %s at scale 1, Table I configuration, SMWorkers=%d (GOMAXPROCS %d); %d cycles per run; wall per run %v s",
		len(runs), kernelWorkload, config.Default().SMWorkers, runtime.GOMAXPROCS(0), runs[0].stats.Cycles, fmtList(totals))
	b.notef("done latency: %d samples (gpu.New to Check); %d lie beyond p95", len(done), beyond(len(done), 95))
	b.gainProbe()
	return nil
}

// probePairs are the cheapest Set-1 and Set-2 kernels of Fig. 8, each
// run under Unshared-LRR and its paper-best shared configuration.
var probePairs = []struct {
	fig, workload string
	shared        harness.ConfigName
}{
	{"fig8c", "backprop", harness.SharedOWFUnrDyn},
	{"fig8d", "CONV2", harness.SharedOWF},
}

// gainProbe gives the workloads that simulate no Fig. 8 pair of their
// own their ipc_gain_* values: after the measurement, untimed, it runs
// the probe pairs through a verifying harness.Session (functional Check
// after every simulation) and reports each pair's IPC improvement. The
// results are deterministic, so the probe adds no spread.
func (b *bench) gainProbe() {
	s := harness.NewSession(1)
	s.Workers = runtime.NumCPU()
	s.SMWorkers = 1
	s.Verify = true
	type cell struct {
		p   int
		cfg harness.ConfigName
		g   *stats.GPU
		err error
	}
	var cells []*cell
	for i, p := range probePairs {
		cells = append(cells, &cell{p: i, cfg: harness.UnsharedLRR}, &cell{p: i, cfg: p.shared})
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, s.Workers)
	for _, c := range cells {
		wg.Add(1)
		go func(c *cell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			spec, err := workloads.ByName(probePairs[c.p].workload)
			if err != nil {
				c.err = err
				return
			}
			c.g, c.err = s.Run(spec, c.cfg, sweepThreshold)
		}(c)
	}
	wg.Wait()
	var gain, paper, gap [2]float64
	for i, p := range probePairs {
		base, shared := cells[2*i], cells[2*i+1]
		ok := true
		for _, c := range []*cell{base, shared} {
			b.attempted++
			label := "probe/" + p.workload + "/" + string(c.cfg)
			d := ""
			if c.err == nil {
				d, c.err = digest(c.g)
			}
			if c.err != nil {
				b.failf("%s: %v", label, c.err)
				ok = false
				continue
			}
			b.digests.add(label, d)
		}
		if !ok {
			continue
		}
		gain[i] = stats.PercentChange(base.g.IPC(), shared.g.IPC())
		paper[i] = harness.PaperRefs[p.fig][p.workload]["Improvement%"]
		gap[i] = math.Abs(gain[i] - paper[i])
	}
	if b.traced {
		b.layer["paper.gap_reg_pct"], b.layer["paper.gap_smem_pct"] = gap[0], gap[1]
	} else {
		b.e2e["ipc_gain_reg_pct"], b.e2e["ipc_gain_smem_pct"] = gain[0], gain[1]
	}
	b.noteGains("gain probe, untimed: backprop | CONV2 only", gain, paper, gap)
}
