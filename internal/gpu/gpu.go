// Package gpu assembles the whole GPU: the SM array, the memory system,
// the thread-block dispatcher (including sharing pairs and ownership-
// transfer relaunch), and the dynamic-warp-execution controller. One
// cycle loop (driver.go) advances everything on a unified cycle clock
// for every run mode until the grid completes.
package gpu

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/fault"
	"gpushare/internal/invariant"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/opt/unroll"
	"gpushare/internal/simerr"
	"gpushare/internal/smcore"
	"gpushare/internal/stats"
)

// Version is the simulator's behavioural revision, the code component
// of cached-result fingerprints (internal/runner). Bump it whenever a
// change can alter simulation statistics — timing model, schedulers,
// ISA semantics, occupancy math, or the workload proxies — so that
// on-disk results from older revisions are invalidated rather than
// trusted.
const Version = "sim-v1"

// progressWindow is the deadlock detector: if no SM issues a single
// instruction for this many consecutive cycles, the run aborts.
const progressWindow = 500_000

// defaultMaxCycles bounds runaway simulations.
const defaultMaxCycles = 200_000_000

// cancelStride is how often the cycle loop polls its context, in
// cycles. It is a power of two so the check compiles to a mask, and
// small enough that a canceled run stops within well under a
// millisecond of wall time.
const cancelStride = 1024

// Sim owns the functional memory and runs kernels on a configured GPU.
// Create it, populate Mem with kernel inputs, Run launches, then read
// results back from Mem.
type Sim struct {
	Cfg config.Config
	Mem *mem.Global

	// Trace, when non-nil and Cfg.TraceInterval > 0, receives one
	// progress snapshot every TraceInterval cycles during Run and
	// RunMulti.
	Trace io.Writer

	// Faults, when non-nil, arms a deterministic fault-injection plan on
	// every SM (invariant-checker tests only): the plan corrupts one
	// internal bookkeeping event mid-run so the test can assert the
	// auditor or watchdog catches it.
	Faults *fault.Plan

	// CheckpointSink, when non-nil and Cfg.CheckpointStride > 0,
	// receives a full machine snapshot every CheckpointStride cycles
	// during Run/RunMulti. Sinks may panic with *checkpoint.CrashPoint
	// under crash-point fault injection; the runner's recovery treats
	// that like any other mid-run crash.
	CheckpointSink checkpoint.Sink

	// RestoreFrom, when non-nil, is an encoded checkpoint blob: each Run
	// resumes from it instead of cycle 0, after verifying it matches
	// this simulator's revision, configuration, run mode, kernels, and
	// (for multi-tenant runs) tenancy spec. A mismatched or corrupt blob
	// fails the run with a typed KindCheckpoint error before any state
	// is touched.
	RestoreFrom []byte

	// SleepTrace, when non-nil, observes every per-SM sleep entry with
	// the SM's ID, the cycle the sleep was entered, and the computed
	// wake cycle (test hook: the checkpoint determinism tests compare
	// wake cycles across original and restored runs).
	SleepTrace func(smID int, now, wakeAt int64)

	ms *mem.System
}

// engineOpts builds the cycle-engine options for this run: per-SM
// sleep is on unless dynamic warp execution is active (its issue gate
// consumes per-attempt randomness, so no cycle is ever provably
// frozen), a fault plan other than MissedWake is armed (fault trips
// count opportunities, so skipping cycles would change which event is
// corrupted), or the NoSMSleep escape hatch is set.
func (s *Sim) engineOpts() engineOpts {
	sleep := !s.Cfg.DynWarp && !s.Cfg.NoSMSleep && !envNoSMSleep() &&
		(s.Faults == nil || s.Faults.Kind == fault.MissedWake)
	return engineOpts{sleep: sleep, ms: s.ms, faults: s.Faults, trace: s.SleepTrace}
}

// armMemSleep arms (or disarms) the event-driven memory tick for this
// run: on unless the NoMemSleep knob or its escape hatch is set, or a
// fault plan other than MissedMemWake is armed (fault trips count
// opportunities, so skipping partition ticks would change which event
// is corrupted). Unlike per-SM sleep, dynamic warp execution does not
// disable it — the memory system consumes no randomness, so its idle
// cycles are provably workless regardless of the issue gate. Called at
// run start, after any checkpoint restore; the memoized horizons are
// derived fresh by the first memory tick either way.
func (s *Sim) armMemSleep() {
	on := !s.Cfg.NoMemSleep && !envNoMemSleep() &&
		(s.Faults == nil || s.Faults.Kind == fault.MissedMemWake)
	s.ms.SetEventDriven(on, s.Faults)
}

// envInvariantStride reads GPUSHARE_INVARIANT_STRIDE: a positive
// integer turns invariant auditing on for every run whose configuration
// leaves InvariantStride at 0 (used by tools/check.sh to run the whole
// tier-1 suite audited without touching test code). Read per Run, not
// once, so tests that genuinely need auditing off can pin it to 0 with
// t.Setenv.
func envInvariantStride() int64 {
	v := os.Getenv("GPUSHARE_INVARIANT_STRIDE")
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// New builds a simulator for the configuration.
func New(cfg config.Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, simerr.Wrap(simerr.KindConfig, -1, err)
	}
	ms := mem.NewSystem(&cfg)
	return &Sim{Cfg: cfg, Mem: ms.Global, ms: ms}, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg config.Config) *Sim {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Occupancy reports the per-SM block occupancy the dispatcher would use
// for the kernel under this simulator's configuration.
func (s *Sim) Occupancy(k *kernel.Kernel) core.Occupancy {
	return core.ComputeOccupancy(&s.Cfg, k)
}

// Run executes one kernel launch to completion and returns the run
// statistics. Run may be called repeatedly; global memory and the L2
// persist across launches (call FlushCaches for cold-cache runs).
func (s *Sim) Run(l *kernel.Launch) (*stats.GPU, error) {
	return s.RunCtx(context.Background(), l)
}

// RunCtx is Run with cooperative cancellation: the cycle loop polls ctx
// every cancelStride cycles (the same cadence family as the invariant
// auditor) and a canceled or expired context aborts the run with a
// KindCanceled error instead of simulating on to MaxCycles. The
// simulator state is abandoned, not checkpointed — a canceled run
// produces no statistics.
func (s *Sim) RunCtx(ctx context.Context, l *kernel.Launch) (*stats.GPU, error) {
	if err := l.Validate(); err != nil {
		return nil, simerr.Wrap(simerr.KindLaunch, -1, err)
	}
	launch := *l
	if s.Cfg.UnrollRegs {
		k := unroll.Apply(l.Kernel)
		launch.Kernel = k
	}
	occ := core.ComputeOccupancy(&s.Cfg, launch.Kernel)
	if occ.Baseline == 0 {
		return nil, simerr.New(simerr.KindUnschedulable, -1,
			"kernel %s does not fit on an SM (%s)", launch.Kernel.Name, occ.Limiter)
	}

	sms, err := s.buildSMs(&launch, occ, -1)
	if err != nil {
		return nil, err
	}
	r := s.newRun(sms, modeSingle, []string{launch.Kernel.Name}, nil)
	defer r.eng.close()
	pol := &singleDispatch{name: launch.Kernel.Name, total: launch.Blocks()}
	start := int64(0)
	if s.RestoreFrom != nil {
		p, err := s.decodePayload(s.RestoreFrom, modeSingle, r.kernels, nil)
		if err != nil {
			return nil, err
		}
		if err := s.restoreMachine(p, sms); err != nil {
			return nil, err
		}
		st := p.Single
		if len(st.DynLast) != len(sms) || len(st.DynProbs) != len(sms) {
			return nil, simerr.New(simerr.KindCheckpoint, p.Cycle,
				"checkpoint dyn-controller state covers %d/%d SMs, run has %d",
				len(st.DynLast), len(st.DynProbs), len(sms))
		}
		copy(r.dyn.last, st.DynLast)
		copy(r.dyn.probs, st.DynProbs)
		if err := r.resume(p.Cycle, st.LastProgress, st.Pending); err != nil {
			return nil, err
		}
		pol.next = st.NextCTA
		start = p.Cycle
	} else if err := r.fill(-1, pol); err != nil {
		return nil, err
	}
	s.armMemSleep()

	now, err := r.loop(ctx, pol, start)
	if err != nil {
		return nil, err
	}
	g := &stats.GPU{Cycles: now + 1, ResidentTB: occ.Max}
	collectSMs(g, sms)
	s.ms.CollectStats(g)
	return g, nil
}

// buildSMs builds a full SM array running one launch; at is the cycle
// reported on failure.
func (s *Sim) buildSMs(l *kernel.Launch, occ core.Occupancy, at int64) ([]*smcore.SM, error) {
	sms := make([]*smcore.SM, s.Cfg.NumSMs)
	for i := range sms {
		sm, err := smcore.New(i, &s.Cfg, l, occ, s.ms)
		if err != nil {
			return nil, simerr.Wrap(simerr.KindLaunch, at, err)
		}
		if s.Faults != nil {
			sm.SetFaults(s.Faults)
		}
		sms[i] = sm
	}
	return sms, nil
}

// collectSMs finalizes every SM's counters into g.
func collectSMs(g *stats.GPU, sms []*smcore.SM) {
	for _, sm := range sms {
		sm.FinalizeStats()
		g.SMs = append(g.SMs, sm.Stats)
		g.L1.Add(sm.L1Stats())
	}
}

// singleDispatch is RunCtx's dispatch policy: CTAs in linear (row-major)
// order into any free slot, until the grid is exhausted.
type singleDispatch struct {
	name        string
	next, total int
}

func (d *singleDispatch) refill(int64, *smcore.SM, int) (int, bool) {
	if d.next >= d.total {
		return 0, false
	}
	d.next++
	return d.next - 1, true
}

func (d *singleDispatch) finished(int64, *smcore.SM, int) {}

// done: every CTA dispatched, no relaunch pending, every SM drained.
func (d *singleDispatch) done(_ int64, r *run) bool {
	return d.next >= d.total && r.pending.len() == 0 && allIdle(r.sms)
}

func (d *singleDispatch) blocks() (int, int) { return d.next, d.total }

func (d *singleDispatch) save(p *payload, r *run) {
	p.Single = &singleState{
		NextCTA:      d.next,
		Pending:      saveQueue(&r.pending),
		LastProgress: r.lastProgress,
		DynLast:      append([]int64(nil), r.dyn.last...),
		DynProbs:     append([]float64(nil), r.dyn.probs...),
	}
}

func (d *singleDispatch) hangMsg(watchdog bool, limit int64) string {
	if watchdog {
		return fmt.Sprintf("kernel %s: no instruction issued for %d cycles (deadlock?)", d.name, limit)
	}
	return fmt.Sprintf("kernel %s exceeded %d cycles", d.name, limit)
}

// FlushCaches invalidates the persistent L2 partitions.
func (s *Sim) FlushCaches() { s.ms.FlushCaches() }

// hangError builds the typed error for a watchdog or MaxCycles abort:
// a forensic dump of every SM plus, when one can be identified, the
// first stuck warp and its stall reason appended to the message.
func (s *Sim) hangError(kind simerr.Kind, now int64, sms []*smcore.SM, msg string) *simerr.SimError {
	dump := invariant.BuildDump(now, sms, s.ms)
	se := &simerr.SimError{Kind: kind, Cycle: now, SM: -1, Warp: -1, Msg: msg, Dump: dump}
	if smID, w, ok := dump.StuckWarp(); ok {
		se.SM, se.Warp = smID, w.Slot
		stall := w.Stall
		if stall == "" {
			stall = "no stall recorded"
		}
		se.Msg += fmt.Sprintf("; first stuck warp: SM%d warp %d at pc %d, %s", smID, w.Slot, w.PC, stall)
	}
	return se
}

// traceSnapshot writes one progress line: cycle, dispatched blocks, and
// aggregate issue/stall/idle counts.
func (s *Sim) traceSnapshot(now int64, sms []*smcore.SM, dispatched, grid int) {
	var instrs, stalls, idles int64
	active := 0
	for _, sm := range sms {
		instrs += sm.Stats.WarpInstrs
		stalls += sm.Stats.StallCycles
		idles += sm.Stats.IdleCycles
		active += sm.ActiveBlocks()
	}
	fmt.Fprintf(s.Trace, "cycle %9d  blocks %5d/%-5d resident %3d  warpinstrs %10d  stall %9d  idle %9d\n",
		now, dispatched, grid, active, instrs, stalls, idles)
}

// dynController implements §IV-C: every DynPeriod cycles each SMi (i>0)
// compares the stall cycles it accumulated in the window against SM0 (on
// which non-owner memory instructions are disabled outright) and steps
// its issue probability down if it stalled more, up if it stalled less.
type dynController struct {
	cfg    *config.Config
	sms    []*smcore.SM
	last   []int64
	probs  []float64
	window []int64 // scratch, reused every period
}

func newDynController(cfg *config.Config, sms []*smcore.SM) *dynController {
	d := &dynController{cfg: cfg, sms: sms, last: make([]int64, len(sms)),
		probs: make([]float64, len(sms)), window: make([]int64, len(sms))}
	for i := range d.probs {
		d.probs[i] = 1
	}
	return d
}

func (d *dynController) maybeAdjust(now int64) {
	if !d.cfg.DynWarp || len(d.sms) < 2 {
		return
	}
	period := int64(d.cfg.DynPeriod)
	if period <= 0 || (now+1)%period != 0 {
		return
	}
	window := d.window
	for i, sm := range d.sms {
		// The paper's monitor counts stalls in the broad sense; our
		// split files memory-induced waits under idle, so the window
		// tracks both.
		total := sm.Stats.StallCycles + sm.Stats.IdleCycles
		window[i] = total - d.last[i]
		d.last[i] = total
	}
	for i := 1; i < len(d.sms); i++ {
		switch {
		case window[i] > window[0]:
			d.probs[i] -= d.cfg.DynStep
		case window[i] < window[0]:
			d.probs[i] += d.cfg.DynStep
		}
		if d.probs[i] < 0 {
			d.probs[i] = 0
		}
		if d.probs[i] > 1 {
			d.probs[i] = 1
		}
		d.sms[i].SetDynProb(d.probs[i])
	}
}
