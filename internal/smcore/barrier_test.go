package smcore

import (
	"reflect"
	"strings"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
)

// barrierSkewKernel has four warps per block reach each of two barriers
// at different times: before the first barrier warp w spins 6w loop
// iterations, before the second 6(3-w), so at any moment some warps are
// parked and some are not. It touches no global memory, so an SM
// restored without its memory system finishes exactly as the original.
func barrierSkewKernel() *kernel.Kernel {
	b := kernel.NewBuilder("barrier-skew", 128)
	b.SetSmem(16).SetRegs(4)
	b.Mov(1, isa.Sreg(isa.SrWarpCta))
	b.IMad(0, isa.Reg(1), isa.Imm(6), isa.Imm(1))
	b.Label("spin1")
	b.ISub(0, isa.Reg(0), isa.Imm(1))
	b.Setp(isa.CmpGT, 0, isa.Reg(0), isa.Imm(0))
	b.BraIf(0, false, "spin1", "bar1")
	b.Label("bar1")
	b.Bar()
	b.ISub(1, isa.Imm(3), isa.Reg(1))
	b.IMad(0, isa.Reg(1), isa.Imm(6), isa.Imm(1))
	b.Label("spin2")
	b.ISub(0, isa.Reg(0), isa.Imm(1))
	b.Setp(isa.CmpGT, 0, isa.Reg(0), isa.Imm(0))
	b.BraIf(0, false, "spin2", "bar2")
	b.Label("bar2")
	b.Bar()
	b.Exit()
	return b.MustBuild()
}

// tickUntil ticks sm from cycle from until stop reports true after a
// cycle or the SM drains; it returns the last cycle ticked.
func tickUntil(t *testing.T, sm *SM, from int64, stop func() bool) int64 {
	t.Helper()
	for now := from; ; now++ {
		if now > from+100000 {
			t.Fatal("SM did not finish")
		}
		if _, err := sm.Tick(now); err != nil {
			t.Fatal(err)
		}
		sm.FinishedSlots()
		if err := sm.AuditBarriers(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		if sm.Idle() || stop() {
			return now
		}
	}
}

// parkedWarps sums the tenants' maintained counts of parked warps.
func parkedWarps(sm *SM) int64 {
	var n int64
	for i := range sm.tens {
		n += sm.tens[i].barrierWarps
	}
	return n
}

// TestBarrierCountAuditCatchesDrift: the maintained parked-warp counts
// pass the audit while warps wait at a barrier, and a tenant count that
// drifts from the warp slots is reported.
func TestBarrierCountAuditCatchesDrift(t *testing.T) {
	sm, _, _ := buildSM(t, config.Default(), barrierSkewKernel(), 2)
	mustLaunch(t, sm, 0, 0)
	mustLaunch(t, sm, 1, 1)
	tickUntil(t, sm, 0, func() bool { return parkedWarps(sm) > 0 })
	if parkedWarps(sm) == 0 {
		t.Fatal("no warp ever parked at a barrier")
	}
	sm.tens[0].barrierWarps--
	if err := sm.AuditBarriers(); err == nil || !strings.Contains(err.Error(), "maintained count") {
		t.Fatalf("tenant count drift not reported: %v", err)
	}
}

// TestRestoreAtBarrierKeepsCounts restores a checkpoint taken while
// some warps wait at a barrier into a fresh SM: the restored parked-warp
// counts must equal the original's, and the restored run must finish
// on the same cycle with the same statistics as an uninterrupted run.
func TestRestoreAtBarrierKeepsCounts(t *testing.T) {
	cfg := config.Default()
	launch := func() *SM {
		sm, _, _ := buildSM(t, cfg, barrierSkewKernel(), 2)
		mustLaunch(t, sm, 0, 0)
		mustLaunch(t, sm, 1, 1)
		return sm
	}

	ref := launch()
	refEnd := tickUntil(t, ref, 0, func() bool { return false })

	sm := launch()
	parked := func() bool { n := parkedWarps(sm); return n >= 3 && n < int64(len(sm.warps)) }
	at := tickUntil(t, sm, 0, parked)
	if !parked() {
		t.Fatal("never caught the SM with part of its warps at a barrier")
	}
	ck := sm.Checkpoint()

	restored, _, _ := buildSM(t, cfg, barrierSkewKernel(), 2)
	if err := restored.RestoreState(at+1, ck); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.tens[0].barrierWarps, sm.tens[0].barrierWarps; got != want {
		t.Fatalf("restored parked count %d, original %d", got, want)
	}
	if err := restored.AuditBarriers(); err != nil {
		t.Fatal(err)
	}
	end := tickUntil(t, restored, at+1, func() bool { return false })
	if end != refEnd {
		t.Fatalf("restored run finished at cycle %d, uninterrupted at %d", end, refEnd)
	}
	if !reflect.DeepEqual(restored.Stats, ref.Stats) || !reflect.DeepEqual(restored.tens[0].st, ref.tens[0].st) {
		t.Fatalf("restored stats differ:\n got %+v\nwant %+v", restored.Stats, ref.Stats)
	}
	if ref.Stats.BarrierWaits == 0 {
		t.Fatal("kernel produced no barrier waits")
	}
}
