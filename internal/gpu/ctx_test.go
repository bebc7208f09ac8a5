package gpu

import (
	"context"
	"errors"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
)

// launchVecAdd allocates inputs for an n-thread vecadd and returns its
// launch descriptor.
func launchVecAdd(t *testing.T, sim *Sim, n int) *kernel.Launch {
	t.Helper()
	k := vecAddKernel(t)
	aAddr := sim.Mem.Alloc(4 * n)
	bAddr := sim.Mem.Alloc(4 * n)
	oAddr := sim.Mem.Alloc(4 * n)
	return &kernel.Launch{
		Kernel:  k,
		GridDim: n / 128,
		Params:  []uint32{aAddr, bAddr, oAddr},
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	sim := MustNew(config.Default())
	l := launchVecAdd(t, sim, 128*28)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sim.RunCtx(ctx, l)
	if err == nil {
		t.Fatal("RunCtx with a canceled context succeeded")
	}
	se, ok := simerr.As(err)
	if !ok || se.Kind != simerr.KindCanceled {
		t.Fatalf("err = %v, want KindCanceled SimError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not wrap context.Canceled", err)
	}
}

// pollCtx is a context whose deadline "expires" on its nth Err poll:
// cancellation at a fixed point in the run, independent of wall-clock
// time and host load.
type pollCtx struct {
	context.Context
	n, polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls >= c.n {
		return context.DeadlineExceeded
	}
	return nil
}

func TestRunCtxDeadlineStopsMidRun(t *testing.T) {
	sim := MustNew(config.Default())
	l := launchVecAdd(t, sim, 128*560)

	const n = 4
	_, err := sim.RunCtx(&pollCtx{Context: context.Background(), n: n}, l)

	se, ok := simerr.As(err)
	if !ok || se.Kind != simerr.KindCanceled {
		t.Fatalf("err = %v, want KindCanceled SimError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v does not wrap context.DeadlineExceeded", err)
	}
	// The cycle loop visits every cycle and polls at each multiple of
	// cancelStride starting from cycle 0, so the nth poll is at cycle
	// (n-1)*cancelStride.
	if want := int64((n - 1) * cancelStride); se.Cycle != want {
		t.Fatalf("canceled at cycle %d, want %d (the %dth poll)", se.Cycle, want, n)
	}
}

func TestRunEquivalentToRunCtxBackground(t *testing.T) {
	sim := MustNew(config.Default())
	l := launchVecAdd(t, sim, 128*28)
	g, err := sim.RunCtx(context.Background(), l)
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if g.Cycles <= 0 {
		t.Fatalf("cycles = %d, want > 0", g.Cycles)
	}
}
