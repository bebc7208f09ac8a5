package gpu

import (
	"context"

	"gpushare/internal/checkpoint"
	"gpushare/internal/invariant"
	"gpushare/internal/simerr"
	"gpushare/internal/smcore"
	"gpushare/internal/tenancy"
)

// dispatchPolicy is what differs between run modes (a single kernel,
// placed multi-tenant, one time slice) inside the shared cycle loop:
// which CTA fills a free block slot, the per-tenant finish ledgers, the
// completion test, the checkpoint loop state, and the text of hang
// errors. The loop calls refill, finished and done every cycle, so
// implementations must not allocate there.
type dispatchPolicy interface {
	// refill returns the CTA to launch into a free slot of sm at cycle
	// now, or false to leave the slot empty.
	refill(now int64, sm *smcore.SM, slot int) (cta int, ok bool)
	// finished records that the block in sm's slot drained at cycle now.
	finished(now int64, sm *smcore.SM, slot int)
	// done reports, after cycle now's dispatch bookkeeping, whether the
	// loop ends with this cycle.
	done(now int64, r *run) bool
	// blocks reports CTAs dispatched so far and the grid total, for
	// trace snapshots.
	blocks() (dispatched, total int)
	// save stores the mode's loop state into a checkpoint payload.
	save(p *payload, r *run)
	// hangMsg describes a MaxCycles abort (watchdog false) or a
	// watchdog abort (watchdog true); limit is the exceeded bound.
	hangMsg(watchdog bool, limit int64) string
}

// run is one execution of the cycle loop: the SM array with its engine
// and auditor, plus the loop state every run mode shares. RunCtx and
// runPlaced build one per run, runTimeSlice one per slice.
type run struct {
	s   *Sim
	sms []*smcore.SM
	eng *cycleEngine
	chk *invariant.Checker
	dyn *dynController

	pending      launchQueue
	lastProgress int64 // last cycle any SM issued: the watchdog's base
	resumedAt    int64 // cycle a restored run resumed at, else -1

	maxCycles, window int64
	sink              checkpoint.Sink // nil: no checkpoints
	ckStride          int64
	traceEvery        int64 // 0: no trace snapshots

	// Checkpoint identity envelope.
	mode    string
	kernels []string
	spec    *tenancy.Spec
}

// newRun builds the engine, auditor and dynamic-warp controller for an
// SM array and resolves the loop's limits from the configuration. The
// caller must close the run's engine.
func (s *Sim) newRun(sms []*smcore.SM, mode string, kernels []string, spec *tenancy.Spec) *run {
	r := &run{s: s, sms: sms, resumedAt: -1, mode: mode, kernels: kernels, spec: spec,
		maxCycles: s.Cfg.MaxCycles, window: s.Cfg.ProgressWindow,
		sink: s.CheckpointSink, ckStride: s.Cfg.CheckpointStride}
	if r.maxCycles <= 0 {
		r.maxCycles = defaultMaxCycles
	}
	if r.window <= 0 {
		r.window = progressWindow
	}
	if r.ckStride <= 0 || r.sink == nil {
		r.ckStride, r.sink = 0, nil
	}
	if s.Trace != nil {
		r.traceEvery = s.Cfg.TraceInterval
	}
	stride := s.Cfg.InvariantStride
	if stride <= 0 {
		stride = envInvariantStride()
	}
	// A fault plan shares mutable state across SMs, so fault-injection
	// runs stay on the sequential engine.
	workers := s.Cfg.SMWorkers
	if s.Faults != nil {
		workers = 1
	}
	r.eng = newCycleEngine(sms, workers, s.engineOpts())
	r.chk = invariant.New(stride, invariant.ClassAll, sms, s.ms)
	r.chk.SetSleepSource(r.eng)
	r.dyn = newDynController(&s.Cfg, sms)
	return r
}

// resume adopts a restored checkpoint's shared loop state.
func (r *run) resume(cycle, lastProgress int64, pending []launchEntry) error {
	q, err := loadQueue(pending, len(r.sms))
	if err != nil {
		return err
	}
	r.pending, r.lastProgress, r.resumedAt = q, lastProgress, cycle
	return nil
}

// fill launches the initial blocks breadth-first, one slot depth at a
// time across SMs and each SM's tenants, as GPGPU-Sim's CTA dispatcher
// does, so blocks spread evenly over the machine.
func (r *run) fill(now int64, pol dispatchPolicy) error {
	for depth := 0; ; depth++ {
		launched := false
		for _, sm := range r.sms {
			for li := 0; li < sm.Tenants(); li++ {
				base, n := sm.TenantSlots(li)
				if depth >= n {
					continue
				}
				cta, ok := pol.refill(now, sm, base+depth)
				if !ok {
					continue
				}
				if err := sm.LaunchBlock(base+depth, cta); err != nil {
					return simerr.Wrap(simerr.KindInvariant, now, err)
				}
				launched = true
			}
		}
		if !launched {
			return nil
		}
	}
}

// loop is the cycle loop every run mode shares. It simulates from cycle
// start until pol reports done and returns that last cycle, with every
// sleeping SM's counters materialized to it.
func (r *run) loop(ctx context.Context, pol dispatchPolicy, start int64) (int64, error) {
	s, sms, eng, chk := r.s, r.sms, r.eng, r.chk
	for now := start; ; now++ {
		// Checkpoint at the top of the loop body: the state is exactly
		// the end of cycle now-1 — staging buffers empty, no scratch
		// live. The resumedAt guard keeps a restored run from instantly
		// re-writing the checkpoint it came from.
		if r.sink != nil && now > 0 && now%r.ckStride == 0 && now != r.resumedAt {
			if err := r.checkpoint(now, pol); err != nil {
				return 0, err
			}
		}
		if now >= r.maxCycles {
			return 0, s.hangError(simerr.KindMaxCycles, now, sms, pol.hangMsg(false, r.maxCycles))
		}
		if now&(cancelStride-1) == 0 && ctx.Err() != nil {
			return 0, simerr.Wrap(simerr.KindCanceled, now, ctx.Err())
		}

		anyIssued, err := eng.tick(now)
		if err != nil {
			if se, ok := simerr.As(err); ok && se.Dump == nil {
				se.Dump = invariant.BuildDump(now, sms, s.ms)
			}
			return 0, err
		}
		s.ms.Tick(now)
		if err := chk.Check(now); err != nil {
			return 0, err
		}

		// Refill freed slots after the CTA dispatch latency, then queue
		// the slots freed this cycle.
		for r.pending.len() > 0 && r.pending.front().at <= now {
			p := r.pending.pop()
			sm := sms[p.sm]
			cta, ok := pol.refill(now, sm, p.slot)
			if !ok {
				continue
			}
			eng.notifyLaunch(p.sm, now)
			if err := sm.LaunchBlock(p.slot, cta); err != nil {
				se := simerr.Wrap(simerr.KindInvariant, now, err)
				se.SM = sm.ID
				se.Dump = invariant.BuildDump(now, sms, s.ms)
				return 0, se
			}
		}
		for si, sm := range sms {
			for _, slot := range sm.FinishedSlots() {
				pol.finished(now, sm, slot)
				r.pending.push(pendingLaunch{sm: si, slot: slot, at: now + int64(s.Cfg.CTALaunchLat)})
			}
		}

		r.dyn.maybeAdjust(now)
		if r.traceEvery > 0 && now%r.traceEvery == 0 {
			eng.materialize(now)
			dispatched, total := pol.blocks()
			s.traceSnapshot(now, sms, dispatched, total)
		}

		if pol.done(now, r) {
			eng.materialize(now) // sleeping SMs still hold un-replayed cycles
			return now, nil
		}

		// Watchdog: forward progress is an SM issuing an instruction.
		if anyIssued {
			r.lastProgress = now
		} else if now-r.lastProgress > r.window {
			return 0, s.hangError(simerr.KindWatchdog, now, sms, pol.hangMsg(true, r.window))
		}
	}
}

// checkpoint writes the machine and loop state at the top of cycle now.
func (r *run) checkpoint(now int64, pol dispatchPolicy) error {
	r.eng.materialize(now - 1) // sleeping SMs' counters, exact to end of now-1
	p, err := r.s.newPayload(r.mode, r.kernels, r.spec, now, r.sms)
	if err != nil {
		return err
	}
	pol.save(p, r)
	blob, err := encodePayload(p)
	if err != nil {
		return err
	}
	if err := r.sink.Put(now, blob); err != nil {
		return simerr.Wrap(simerr.KindCheckpoint, now, err)
	}
	return nil
}

// allIdle reports whether every SM has drained its resident blocks.
func allIdle(sms []*smcore.SM) bool {
	for _, sm := range sms {
		if !sm.Idle() {
			return false
		}
	}
	return true
}
