package gpu

import (
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/kernel"
)

// TestDispatchPolicyCallsDoNotAllocate: the cycle loop calls refill,
// finished and done every cycle, so no run mode's policy may allocate
// there.
func TestDispatchPolicyCallsDoNotAllocate(t *testing.T) {
	sim := MustNew(config.Default())
	l := launchVecAdd(t, sim, 128*28)
	sms, err := sim.buildSMs(l, sim.Occupancy(l.Kernel), -1)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.newRun(sms, modeSingle, nil, nil)
	defer r.eng.close()

	big := &kernel.Launch{Kernel: l.Kernel, GridDim: 1 << 20}
	policies := []struct {
		name string
		pol  dispatchPolicy
	}{
		{"single", &singleDispatch{total: 1 << 20}},
		{"placed", &placedDispatch{ledger: newLedger([]*kernel.Launch{big}), totalAll: 1 << 20}},
		{"timeslice", &sliceDispatch{ledger: newLedger([]*kernel.Launch{big}), sliceEnd: 1 << 40}},
	}
	for _, p := range policies {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := p.pol.refill(0, sms[0], 0); !ok {
				t.Fatalf("%s: refill refused with CTAs left", p.name)
			}
			p.pol.finished(0, sms[0], 0)
			p.pol.done(0, r)
		})
		if allocs != 0 {
			t.Errorf("%s policy: %.1f allocations per cycle, want 0", p.name, allocs)
		}
	}
}
