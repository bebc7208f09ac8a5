package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"gpushare/internal/config"
	"gpushare/internal/gpu"
	"gpushare/internal/harness"
	"gpushare/internal/stats"
	"gpushare/internal/workloads"
)

// sweepJob is one cell of the Fig. 8(c)+(d) job matrix.
type sweepJob struct {
	spec *workloads.Spec
	cfg  harness.ConfigName
}

func (j sweepJob) label() string { return j.spec.Name + "/" + string(j.cfg) }

// sweepThreshold is the sharing threshold t the Fig. 8 experiments use.
const sweepThreshold = 0.1

// figures pairs each Fig. 8 experiment with its workload set and the
// paper-best shared configuration it compares against Unshared-LRR.
var figures = []struct {
	id     string
	set    workloads.Set
	shared harness.ConfigName
}{
	{"fig8c", workloads.Set1, harness.SharedOWFUnrDyn},
	{"fig8d", workloads.Set2, harness.SharedOWF},
}

// sweepJobs lists the matrix in the order Session.Precompute plans it.
func sweepJobs() []sweepJob {
	var jobs []sweepJob
	for _, f := range figures {
		for _, spec := range workloads.BySet(f.set) {
			jobs = append(jobs, sweepJob{spec, harness.UnsharedLRR}, sweepJob{spec, f.shared})
		}
	}
	return jobs
}

// sweepResult is one sweep's measurements.
type sweepResult struct {
	wall               time.Duration
	allocMB            float64
	doneMs             []float64 // each job's completion, from the sweep's start
	jobMs              []float64 // each job's own duration
	precompute, tables time.Duration
	cycles             int64
	gains, gaps        [2]float64 // fig8c (registers), fig8d (scratchpad)
	hitRate            float64
	stats              map[string]*stats.GPU
	failed             []string // jobs that failed, their Check included
	fresh              int64    // simulations the session ran, tables included
	gainRows           [2]int
}

// newSweepSession builds the session exactly as gexp -scale 1 -j nproc
// -verify does and forces its lazily built job runner, so the session
// is ready to simulate when this returns. Verify runs each kernel's
// functional Check after its simulation; a failed Check comes back, as
// SoftFail renders it, as a zeroed result.
func newSweepSession() *harness.Session {
	s := harness.NewSession(1)
	s.Workers = runtime.NumCPU()
	s.SMWorkers = 1
	s.Verify = true
	s.SoftFail = true
	s.Counters()
	return s
}

// sweepSetup times the set-up the sweep pays before its first simulated
// cycle: the session, and for each kernel of the matrix what every job
// does before it runs, a simulator with its inputs generated and staged.
// It is measured apart from the sweep.
func sweepSetup() (time.Duration, error) {
	t0 := time.Now()
	newSweepSession()
	cfg := config.Default()
	cfg.SMWorkers = 1
	for _, f := range figures {
		for _, spec := range workloads.BySet(f.set) {
			sim, err := gpu.New(cfg)
			if err != nil {
				return 0, err
			}
			spec.Build(1).Setup(sim.Mem)
		}
	}
	return time.Since(t0), nil
}

// sweepOnce runs the Fig. 8(c)+(d) matrix cold through a fresh
// harness.Session and assembles both tables from its cache. The jobs
// fan out over Session.Run on Session.Workers goroutines, in the order
// Session.Precompute plans them, so each job's span and completion time
// are exact. A nil tracer records no spans; the traced and untraced
// passes are otherwise the same.
func sweepOnce(tr *tracer) (*sweepResult, error) {
	r := &sweepResult{stats: map[string]*stats.GPU{}}
	endSetup := tr.begin("harness.new_session", "harness", "", 0)
	s := newSweepSession()
	endSetup()

	jobs := sweepJobs()
	results := make([]*stats.GPU, len(jobs))
	r.doneMs = make([]float64, len(jobs))
	r.jobMs = make([]float64, len(jobs))
	alloc0 := heapAllocated()
	start := time.Now()
	endPre := tr.begin("harness.precompute", "harness", "", 0)
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < s.Workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range ch {
				j := jobs[i]
				t := time.Now()
				end := tr.begin("runner.job", "runner", j.label(), lane+1)
				// A soft-failing session reports a failure, a failed
				// Check included, as zeroed statistics, counted below.
				results[i], _ = s.Run(j.spec, j.cfg, sweepThreshold)
				end()
				r.jobMs[i] = ms(time.Since(t))
				r.doneMs[i] = ms(time.Since(start))
			}
		}(w)
	}
	for i := range jobs {
		ch <- i
	}
	close(ch)
	wg.Wait()
	endPre()
	r.precompute = time.Since(start)

	tstart := time.Now()
	endTables := tr.begin("harness.tables", "harness", "", 0)
	var tables [2]*harness.Table
	for i, f := range figures {
		t, err := s.Experiment(f.id)
		if err != nil {
			return nil, err
		}
		tables[i] = t
	}
	endTables()
	r.tables = time.Since(tstart)
	r.wall = time.Since(start)
	r.allocMB = float64(heapAllocated()-alloc0) / 1e6
	c := s.Counters()
	r.hitRate = c.HitRate()
	// The tables must come from the cache alone: a fresh simulation
	// here means sweepJobs no longer matches the Fig. 8 experiments.
	r.fresh = c.Simulated + c.Failed

	for i, f := range figures {
		ref := harness.PaperRefs[f.id]
		var g, gap []float64
		for _, row := range tables[i].Rows {
			g = append(g, row.Cells[0])
			if p, ok := ref[row.Name]["Improvement%"]; ok {
				gap = append(gap, math.Abs(row.Cells[0]-p))
			}
		}
		r.gains[i], r.gaps[i], r.gainRows[i] = mean(g), mean(gap), len(g)
	}
	for i, j := range jobs {
		g := results[i]
		if g == nil || g.Cycles == 0 {
			r.failed = append(r.failed, j.label())
			continue
		}
		r.stats[j.label()] = g
		r.cycles += g.Cycles
	}
	return r, nil
}

// record folds a sweep's job results into the digest set and counts.
func (b *bench) recordSweep(r *sweepResult) {
	b.attempted += len(sweepJobs())
	for _, label := range r.failed {
		b.failf("%s: failed (simulation or functional check)", label)
	}
	if r.fresh != int64(len(sweepJobs())) {
		b.failf("the Fig. 8 tables ran %d simulations, want the %d of the job matrix", r.fresh, len(sweepJobs()))
	}
	for _, j := range sweepJobs() {
		g := r.stats[j.label()]
		if g == nil {
			continue
		}
		d, err := digest(g)
		if err != nil {
			b.failf("%s: %v", j.label(), err)
			continue
		}
		if !b.digests.add(j.label(), d) {
			b.failf("%s: statistics differ between repetitions", j.label())
		}
	}
}

// paperMeans are the means of the paper's Fig. 8(c) and 8(d)
// Improvement% values.
func paperMeans() [2]float64 {
	var out [2]float64
	for i, f := range figures {
		var v []float64
		for _, cells := range harness.PaperRefs[f.id] {
			v = append(v, cells["Improvement%"])
		}
		out[i] = mean(v)
	}
	return out
}

// noteGains prints the measured gains beside the paper's, with the
// honest label for what the difference is.
func (b *bench) noteGains(what string, gain, paper, gap [2]float64) {
	b.notef("ipc_gain_reg_pct  = %6.2f %%  (paper %6.2f %%; %s)", gain[0], paper[0], what)
	b.notef("ipc_gain_smem_pct = %6.2f %%  (paper %6.2f %%; %s)", gain[1], paper[1], what)
	b.notef("paper gap, mean |measured - paper| per kernel: registers %.2f pp, scratchpad %.2f pp."+
		" This is the distance from the paper's GPGPU-Sim numbers on the real suites,"+
		" measured on synthetic proxy kernels; it is not a validated error.", gap[0], gap[1])
}

func runPaperSweep(b *bench) error {
	if b.traced {
		var r *sweepResult
		tr, err := b.tracedRun(func(tr *tracer) (time.Duration, error) {
			var err error
			r, err = sweepOnce(tr)
			if err != nil {
				return 0, err
			}
			b.recordSweep(r)
			return r.wall, nil
		})
		if err != nil {
			return err
		}
		var sc simCounters
		for _, g := range r.stats {
			sc.add(g, config.Default().NumSchedulers)
		}
		sc.into(b.layer)
		busy := sum(r.jobMs)
		b.layer["runner.job_p50_ms"] = median(r.jobMs)
		b.layer["runner.job_max_ms"] = percentile(r.jobMs, 100)
		workers := float64(runtime.NumCPU())
		b.layer["runner.worker_idle_pct"] = 100 * ratio(ms(r.precompute)*workers-busy, ms(r.precompute)*workers)
		b.layer["runner.cache_hit_rate"] = r.hitRate
		b.layer["harness.precompute_s"] = r.precompute.Seconds()
		b.layer["harness.tables_ms"] = ms(r.tables)
		b.layer["gpu.host_ns_per_warp_instr"] = ratio(busy*1e6, float64(sc.warpInstrs))
		b.layer["paper.gap_reg_pct"], b.layer["paper.gap_smem_pct"] = r.gaps[0], r.gaps[1]
		b.notef("traced sweep: %d jobs, job spans p50 %.0f ms, max %.0f ms",
			len(r.jobMs), median(r.jobMs), percentile(r.jobMs, 100))
		b.noteGains("Fig. 8(c)/(d) means", r.gains, paperMeans(), r.gaps)
		return b.writeTrace(tr)
	}

	// The host's speed drifts in phases that last seconds, so set-up is
	// sampled in batches before the first sweep and after every sweep
	// rather than in one burst.
	var setups []float64
	sampleSetup := func() error {
		for i := 0; i < setupBatch; i++ {
			d, err := sweepSetup()
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if err := sampleSetup(); err != nil {
		return err
	}
	var runs []*sweepResult
	err := repeat(b.seconds, 2, func() error {
		r, err := sweepOnce(nil)
		if err != nil {
			return err
		}
		b.recordSweep(r)
		runs = append(runs, r)
		return sampleSetup()
	})
	if err != nil {
		return err
	}
	var walls, allocs, done, rates []float64
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		allocs = append(allocs, r.allocMB)
		done = append(done, r.doneMs...)
		rates = append(rates, float64(r.cycles)/r.wall.Seconds())
	}
	last := runs[len(runs)-1]
	for i, f := range figures {
		if last.gainRows[i] != len(workloads.BySet(f.set)) {
			b.failf("%s table has %d rows, want %d", f.id, last.gainRows[i], len(workloads.BySet(f.set)))
		}
	}
	b.e2e["wall_s"] = median(walls)
	b.e2e["sim_cycles_per_s"] = median(rates)
	b.e2e["ipc_gain_reg_pct"], b.e2e["ipc_gain_smem_pct"] = last.gains[0], last.gains[1]
	b.e2e["done_p50_ms"] = percentile(done, 50)
	b.e2e["done_p95_ms"] = percentile(done, 95)
	b.e2e["jobs_per_s"] = float64(len(sweepJobs())) / median(walls)
	b.e2e["alloc_mb"] = median(allocs)
	b.e2e["setup_s"] = median(setups)
	b.notef("%d sweep(s) of %d cold simulations; wall per sweep %v s; %d set-up samples",
		len(runs), len(sweepJobs()), fmtList(walls), len(setups))
	b.notef("done latency: %d samples (job completion from sweep start); %d lie beyond p95",
		len(done), beyond(len(done), 95))
	b.noteGains("Fig. 8(c)/(d) means", last.gains, paperMeans(), last.gaps)
	return nil
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}
