package gpu

import (
	"context"
	"fmt"

	"gpushare/internal/core"
	"gpushare/internal/kernel"
	"gpushare/internal/opt/unroll"
	"gpushare/internal/simerr"
	"gpushare/internal/smcore"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
)

// RunMulti executes several kernels concurrently on one GPU under the
// spec's tenancy policy and returns whole-run statistics with a
// per-tenant breakdown. See RunMultiCtx.
func (s *Sim) RunMulti(spec *tenancy.Spec, launches []*kernel.Launch) (*stats.GPU, error) {
	return s.RunMultiCtx(context.Background(), spec, launches)
}

// RunMultiCtx is the multi-tenant Run loop. launches[i] is tenant i's
// kernel; the spec decides how the tenants share the GPU:
//
//   - Spatial: the admission layer splits the SMs into disjoint
//     contiguous ranges, one per tenant, and all tenants run at once.
//   - CoSched: the admission layer bin-packs blocks from different
//     tenants onto the same SMs under per-tenant register and
//     scratchpad caps.
//   - TimeSlice: tenants own the whole GPU in round-robin slices of
//     QuotaCycles cycles; at each quota boundary dispatch stops and the
//     resident blocks drain — a deterministic context switch.
//
// The run is bit-deterministic for a given (config, spec, launches)
// regardless of SMWorkers, sleep and snapshot mode, like RunCtx; every
// policy runs the same cycle loop as RunCtx (driver.go). Dynamic warp
// execution is rejected because its SM0-reference design has no
// per-tenant meaning.
//
// The caller validates the spec's workload names; this layer only
// checks the structural rules it depends on.
func (s *Sim) RunMultiCtx(ctx context.Context, spec *tenancy.Spec, launches []*kernel.Launch) (*stats.GPU, error) {
	if s.Cfg.DynWarp {
		return nil, simerr.New(simerr.KindConfig, -1,
			"multi-tenant runs do not support dynamic warp execution (DynWarp)")
	}
	if spec == nil {
		return nil, simerr.New(simerr.KindConfig, -1, "multi-tenant run needs a tenancy spec")
	}
	if len(launches) == 0 || len(launches) != len(spec.Tenants) {
		return nil, simerr.New(simerr.KindLaunch, -1,
			"multi-tenant run needs one launch per tenant: %d launches, %d tenants",
			len(launches), len(spec.Tenants))
	}
	if spec.Policy == tenancy.TimeSlice && spec.QuotaCycles <= 0 {
		return nil, simerr.New(simerr.KindConfig, -1, "timeslice policy requires quota_cycles > 0")
	}
	run := make([]*kernel.Launch, len(launches))
	for i, l := range launches {
		if err := l.Validate(); err != nil {
			return nil, simerr.Wrap(simerr.KindLaunch, -1, fmt.Errorf("tenant %d: %w", i, err))
		}
		cp := *l
		if s.Cfg.UnrollRegs {
			cp.Kernel = unroll.Apply(l.Kernel)
		}
		run[i] = &cp
	}
	if spec.Policy == tenancy.TimeSlice {
		return s.runTimeSlice(ctx, spec, run)
	}
	return s.runPlaced(ctx, spec, run)
}

// runPlaced executes the spatial and co-scheduled policies: one
// admission decision up front, then one cycle loop over SMs that host a
// fixed tenant mix for the whole run.
func (s *Sim) runPlaced(ctx context.Context, spec *tenancy.Spec, launches []*kernel.Launch) (*stats.GPU, error) {
	pl, err := tenancy.Pack(&s.Cfg, launches, spec)
	if err != nil {
		return nil, simerr.Wrap(simerr.KindUnschedulable, -1, err)
	}

	// Build only the SMs the placement populated; an SM with no tenants
	// would idle for the whole run. SM IDs keep their real indices so
	// memory-system routing is unaffected.
	var sms []*smcore.SM
	for si := range pl.SMs {
		plan := &pl.SMs[si]
		if len(plan.Tenants) == 0 {
			continue
		}
		tls := make([]smcore.TenantLaunch, len(plan.Tenants))
		for j, ta := range plan.Tenants {
			tls[j] = smcore.TenantLaunch{
				ID:      ta.Tenant,
				Launch:  launches[ta.Tenant],
				Occ:     ta.Occ,
				CapRegs: ta.Regs,
				CapSmem: ta.Smem,
			}
		}
		sm, err := smcore.NewMulti(si, &s.Cfg, tls, s.ms)
		if err != nil {
			return nil, simerr.Wrap(simerr.KindLaunch, -1, err)
		}
		if s.Faults != nil {
			sm.SetFaults(s.Faults)
		}
		sms = append(sms, sm)
	}

	n := len(launches)
	kernels := make([]string, n)
	for i, l := range launches {
		kernels[i] = l.Kernel.Name
	}
	r := s.newRun(sms, modePlaced, kernels, spec)
	defer r.eng.close()
	pol := &placedDispatch{policy: spec.Policy, ledger: newLedger(launches)}
	for _, t := range pol.total {
		pol.totalAll += t
	}
	start := int64(0)
	if s.RestoreFrom != nil {
		p, err := s.decodePayload(s.RestoreFrom, modePlaced, kernels, spec)
		if err != nil {
			return nil, err
		}
		if err := s.restoreMachine(p, sms); err != nil {
			return nil, err
		}
		st := p.Placed
		if len(st.Next) != n || len(st.Completed) != n || len(st.Done) != n {
			return nil, simerr.New(simerr.KindCheckpoint, p.Cycle,
				"checkpoint dispatch ledgers cover %d/%d/%d tenants, run has %d",
				len(st.Next), len(st.Completed), len(st.Done), n)
		}
		pol.restore(st.Next, st.Completed, st.Done)
		pol.doneAll = st.DoneAll
		if err := r.resume(p.Cycle, st.LastProgress, st.Pending); err != nil {
			return nil, err
		}
		start = p.Cycle
	} else if err := r.fill(-1, pol); err != nil {
		return nil, err
	}
	s.armMemSleep()

	now, err := r.loop(ctx, pol, start)
	if err != nil {
		return nil, err
	}
	g := &stats.GPU{Cycles: now + 1}
	for si := range pl.SMs {
		slots := 0
		for _, ta := range pl.SMs[si].Tenants {
			slots += ta.Occ.Max
		}
		if slots > g.ResidentTB {
			g.ResidentTB = slots
		}
	}
	collectSMs(g, sms)
	g.Tenants = collectTenants(spec, sms, pol.doneAt)
	s.ms.CollectStats(g)
	return g, nil
}

// ledger is a multi-tenant run's per-tenant dispatch bookkeeping.
type ledger struct {
	next      []int   // next CTA to dispatch
	total     []int   // grid size
	completed []int   // blocks drained
	doneAt    []int64 // cycle the tenant's last block drained
}

func newLedger(launches []*kernel.Launch) ledger {
	n := len(launches)
	l := ledger{next: make([]int, n), total: make([]int, n), completed: make([]int, n), doneAt: make([]int64, n)}
	for i, k := range launches {
		l.total[i] = k.Blocks()
	}
	return l
}

// take hands out tenant ti's next CTA, if any remain.
func (l *ledger) take(ti int) (int, bool) {
	if l.next[ti] >= l.total[ti] {
		return 0, false
	}
	l.next[ti]++
	return l.next[ti] - 1, true
}

// finish records one of tenant ti's blocks draining at cycle now.
func (l *ledger) finish(ti int, now int64) {
	l.completed[ti]++
	if l.completed[ti] == l.total[ti] {
		l.doneAt[ti] = now
	}
}

func (l *ledger) restore(next, completed []int, done []int64) {
	copy(l.next, next)
	copy(l.completed, completed)
	copy(l.doneAt, done)
}

// blocks sums the ledger over tenants, for trace snapshots.
func (l *ledger) blocks() (dispatched, total int) {
	for i := range l.next {
		dispatched += l.next[i]
		total += l.total[i]
	}
	return dispatched, total
}

// placedDispatch is runPlaced's dispatch policy: a freed slot takes its
// owning tenant's next CTA; the run ends when every tenant's blocks
// have drained.
type placedDispatch struct {
	ledger
	policy            tenancy.Policy
	doneAll, totalAll int
}

func (d *placedDispatch) refill(_ int64, sm *smcore.SM, slot int) (int, bool) {
	return d.take(sm.TenantOfSlot(slot))
}

func (d *placedDispatch) finished(now int64, sm *smcore.SM, slot int) {
	d.finish(sm.TenantOfSlot(slot), now)
	d.doneAll++
}

func (d *placedDispatch) done(int64, *run) bool { return d.doneAll >= d.totalAll }

func (d *placedDispatch) save(p *payload, r *run) {
	p.Placed = &placedState{
		Next:         append([]int(nil), d.next...),
		Completed:    append([]int(nil), d.completed...),
		Done:         append([]int64(nil), d.doneAt...),
		DoneAll:      d.doneAll,
		Pending:      saveQueue(&r.pending),
		LastProgress: r.lastProgress,
	}
}

func (d *placedDispatch) hangMsg(watchdog bool, limit int64) string {
	if watchdog {
		return fmt.Sprintf("multi-tenant run (%s): no instruction issued for %d cycles (deadlock?)", d.policy, limit)
	}
	return fmt.Sprintf("multi-tenant run (%s) exceeded %d cycles", d.policy, limit)
}

// runTimeSlice executes the time-slicing policy: tenants own the whole
// GPU in round-robin order for QuotaCycles-cycle slices on one global
// clock. At a quota boundary dispatch stops and the resident blocks
// drain to idle — the deterministic context switch — then the next
// unfinished tenant's SMs are built fresh (cold L1s, as a real context
// switch would) while global memory and the L2 persist.
func (s *Sim) runTimeSlice(ctx context.Context, spec *tenancy.Spec, launches []*kernel.Launch) (*stats.GPU, error) {
	n := len(launches)
	occs := make([]core.Occupancy, n)
	for i, l := range launches {
		occs[i] = core.ComputeOccupancy(&s.Cfg, l.Kernel)
		if occs[i].Baseline == 0 {
			return nil, simerr.New(simerr.KindUnschedulable, -1,
				"tenant %d: kernel %s does not fit on an SM (%s)", i, l.Kernel.Name, occs[i].Limiter)
		}
	}
	kernels := make([]string, n)
	for i, l := range launches {
		kernels[i] = l.Kernel.Name
	}

	pol := &sliceDispatch{ledger: newLedger(launches), remaining: n,
		agg: &stats.GPU{}, tenAgg: make([]stats.Tenant, n)}
	for i := range pol.tenAgg {
		pol.tenAgg[i].Name = spec.TenantName(i)
		pol.tenAgg[i].Workload = spec.Tenants[i].Workload
	}

	// rs, when non-nil, is a decoded checkpoint to resume from: the
	// first slice restores tenant rs.Slice.Tenant's in-progress slice
	// (possibly mid-quantum, possibly draining) instead of building and
	// filling a fresh one.
	var rs *payload
	startTi := 0
	if s.RestoreFrom != nil {
		p, err := s.decodePayload(s.RestoreFrom, modeTimeslice, kernels, spec)
		if err != nil {
			return nil, err
		}
		st := p.Slice
		if len(st.Next) != n || len(st.Completed) != n || len(st.Done) != n || len(st.TenAgg) != n {
			return nil, simerr.New(simerr.KindCheckpoint, p.Cycle,
				"checkpoint dispatch ledgers cover %d/%d/%d/%d tenants, run has %d",
				len(st.Next), len(st.Completed), len(st.Done), len(st.TenAgg), n)
		}
		if st.Tenant < 0 || st.Tenant >= n {
			return nil, simerr.New(simerr.KindCheckpoint, p.Cycle,
				"checkpoint slice tenant %d out of range (%d tenants)", st.Tenant, n)
		}
		pol.restore(st.Next, st.Completed, st.Done)
		pol.remaining = st.Remaining
		*pol.agg = st.Agg
		copy(pol.tenAgg, st.TenAgg)
		startTi = st.Tenant
		rs = p
	}

	// The memory system persists across slices (one arming covers the
	// whole run); each slice's first memory tick derives fresh horizons.
	s.armMemSleep()

	now := int64(0)
	for ti := startTi; pol.remaining > 0; ti = (ti + 1) % n {
		// A resumed slice may already be draining (all CTAs completed,
		// blocks still resident), so the skip applies only to fresh
		// slices.
		if rs == nil && pol.completed[ti] >= pol.total[ti] {
			continue
		}
		pol.ti = ti
		end, err := s.runSlice(ctx, spec, launches[ti], occs[ti], pol, kernels, rs, now)
		if err != nil {
			return nil, err
		}
		rs = nil
		now = end + 1 // the next slice starts on the cycle after this one's last
	}

	g := pol.agg
	g.Cycles = now
	for i := range pol.tenAgg {
		pol.tenAgg[i].Cycles = pol.doneAt[i] + 1
	}
	g.Tenants = pol.tenAgg
	s.ms.CollectStats(g)
	return g, nil
}

// runSlice runs tenant pol.ti's slice from cycle now (or from the
// checkpoint rs, when non-nil) until its blocks drain, merges the
// slice's statistics into pol's aggregates, and returns the slice's
// last cycle.
func (s *Sim) runSlice(ctx context.Context, spec *tenancy.Spec, l *kernel.Launch, occ core.Occupancy,
	pol *sliceDispatch, kernels []string, rs *payload, now int64) (int64, error) {
	sms, err := s.buildSMs(l, occ, now)
	if err != nil {
		return 0, err
	}
	r := s.newRun(sms, modeTimeslice, kernels, spec)
	defer r.eng.close()
	if rs != nil {
		if err := s.restoreMachine(rs, sms); err != nil {
			return 0, err
		}
		if err := r.resume(rs.Cycle, rs.Slice.LastProgress, rs.Slice.Pending); err != nil {
			return 0, err
		}
		now = rs.Cycle
		pol.sliceEnd = rs.Slice.SliceEnd
	} else {
		pol.sliceEnd = now + spec.QuotaCycles
		r.lastProgress = now
		if err := r.fill(now, pol); err != nil {
			return 0, err
		}
	}

	end, err := r.loop(ctx, pol, now)
	if err != nil {
		return 0, err
	}
	slice := &stats.GPU{ResidentTB: occ.Max}
	collectSMs(slice, sms)
	var st stats.Tenant
	peak, slots := 0, 0
	for _, sm := range sms {
		ts := sm.TenantStats(0)
		st.AddCounters(&ts)
		peak += ts.MaxResidentTB
		slots += ts.ResidentSlots
	}
	pol.agg.Merge(slice)
	agg := &pol.tenAgg[pol.ti]
	agg.AddCounters(&st)
	if peak > agg.MaxResidentTB {
		agg.MaxResidentTB = peak
	}
	agg.ResidentSlots = slots
	agg.SMs = len(sms)
	if pol.completed[pol.ti] >= pol.total[pol.ti] {
		pol.remaining--
	}
	return end, nil
}

// sliceDispatch is the time-slice dispatch policy. It persists across
// slices: ti is the tenant holding the GPU, sliceEnd its quota
// boundary, and the ledgers and aggregates span the whole run.
type sliceDispatch struct {
	ledger
	ti        int
	sliceEnd  int64
	remaining int // tenants with blocks left to complete
	agg       *stats.GPU
	tenAgg    []stats.Tenant
}

// refill dispatches only inside the quota; past the boundary the slice
// is draining and freed slots stay empty (their CTAs go to this
// tenant's next slice).
func (d *sliceDispatch) refill(now int64, _ *smcore.SM, _ int) (int, bool) {
	if now >= d.sliceEnd {
		return 0, false
	}
	return d.take(d.ti)
}

func (d *sliceDispatch) finished(now int64, _ *smcore.SM, _ int) { d.finish(d.ti, now) }

// done: the tenant's grid completed or its quota expired, and every
// resident block has drained.
func (d *sliceDispatch) done(now int64, r *run) bool {
	return (d.completed[d.ti] >= d.total[d.ti] || now >= d.sliceEnd) && allIdle(r.sms)
}

func (d *sliceDispatch) save(p *payload, r *run) {
	p.Slice = &sliceState{
		Tenant:       d.ti,
		SliceEnd:     d.sliceEnd,
		Next:         append([]int(nil), d.next...),
		Completed:    append([]int(nil), d.completed...),
		Done:         append([]int64(nil), d.doneAt...),
		Remaining:    d.remaining,
		Pending:      saveQueue(&r.pending),
		LastProgress: r.lastProgress,
		Agg:          *d.agg,
		TenAgg:       append([]stats.Tenant(nil), d.tenAgg...),
	}
}

func (d *sliceDispatch) hangMsg(watchdog bool, limit int64) string {
	if watchdog {
		return fmt.Sprintf("timeslice run: no instruction issued for %d cycles in tenant %d's slice (deadlock?)", limit, d.ti)
	}
	return fmt.Sprintf("timeslice run exceeded %d cycles (tenant %d's slice)", limit, d.ti)
}

// collectTenants assembles the per-tenant breakdown for a placed run:
// each tenant's counters summed over its hosting SMs, with its makespan
// as its own Cycles.
func collectTenants(spec *tenancy.Spec, sms []*smcore.SM, done []int64) []stats.Tenant {
	out := make([]stats.Tenant, len(spec.Tenants))
	for i := range out {
		t := &out[i]
		t.Name = spec.TenantName(i)
		t.Workload = spec.Tenants[i].Workload
		t.Cycles = done[i] + 1
		for _, sm := range sms {
			for li := 0; li < sm.Tenants(); li++ {
				if sm.TenantID(li) != i {
					continue
				}
				ts := sm.TenantStats(li)
				t.AddCounters(&ts)
				t.MaxResidentTB += ts.MaxResidentTB
				t.ResidentSlots += ts.ResidentSlots
				t.SMs++
			}
		}
	}
	return out
}
