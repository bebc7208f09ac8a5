package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"gpushare/internal/stats"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (the "inclusive" method, as
// numpy's default). It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond reports how many of n samples lie above the p-th percentile:
// the count that makes a tail percentile trustworthy (at least ten).
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest is the short content hash of a run's canonical statistics
// encoding: equal digests mean byte-identical simulated results.
func digest(g *stats.GPU) (string, error) {
	b, err := g.EncodeJSON()
	if err != nil {
		return "", fmt.Errorf("encode stats: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8]), nil
}

// digestSet records one digest per job label.
type digestSet struct {
	byLabel map[string]string
}

func newDigestSet() *digestSet { return &digestSet{byLabel: map[string]string{}} }

// add records d for label and reports whether it matches any digest the
// label already had.
func (ds *digestSet) add(label, d string) bool {
	if old, ok := ds.byLabel[label]; ok && old != d {
		return false
	}
	ds.byLabel[label] = d
	return true
}

// combined hashes the sorted label=digest lines into one digest, so two
// commits can be compared for byte-identical simulated statistics.
func (ds *digestSet) combined() string {
	lines := make([]string, 0, len(ds.byLabel))
	for l, d := range ds.byLabel {
		lines = append(lines, l+"="+d)
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:8])
}

// simCounters folds the simulated per-layer counters of many runs.
type simCounters struct {
	runs                         int
	cycles, smCycles, warpInstrs int64
	stall, idle                  int64
	regWaits, smemWaits          int64
	lockWaits, dynGate           int64
	l1Hits, l1Acc, l2Hits, l2Acc int64
	rowHits, rowAcc              int64
	memBusy, memPartCycles       int64
	schedulers                   int
}

func (c *simCounters) add(g *stats.GPU, schedulers int) {
	c.runs++
	c.schedulers = schedulers
	c.cycles += g.Cycles
	for i := range g.SMs {
		sm := &g.SMs[i]
		c.smCycles += sm.Cycles
		c.warpInstrs += sm.WarpInstrs
		c.stall += sm.StallCycles
		c.idle += sm.IdleCycles
		c.regWaits += sm.SharedRegWaits
		c.smemWaits += sm.SharedMemWaits
		c.lockWaits += sm.BlockLockWait
		c.dynGate += sm.BlockDynGate
	}
	c.l1Hits += g.L1.Hits
	c.l1Acc += g.L1.Accesses
	c.l2Hits += g.L2.Hits
	c.l2Acc += g.L2.Accesses
	c.rowHits += g.DRAM.RowHits
	c.rowAcc += g.DRAM.RowHits + g.DRAM.RowMisses
	for i := range g.MemParts {
		c.memBusy += g.MemParts[i].BusyCycles
		c.memPartCycles += g.Cycles
	}
}

// into writes the simulated per-layer metrics.
func (c *simCounters) into(m map[string]float64) {
	f := func(x int64) float64 { return float64(x) }
	m["smcore.issue_util"] = ratio(f(c.warpInstrs), f(c.smCycles)*float64(c.schedulers))
	m["smcore.stall_share"] = ratio(f(c.stall), f(c.smCycles))
	m["smcore.idle_share"] = ratio(f(c.idle), f(c.smCycles))
	kinstr := f(c.warpInstrs) / 1000
	m["core.shared_reg_waits_pki"] = ratio(f(c.regWaits), kinstr)
	m["core.shared_smem_waits_pki"] = ratio(f(c.smemWaits), kinstr)
	m["core.lock_wait_pki"] = ratio(f(c.lockWaits), kinstr)
	m["core.dyn_gate_pki"] = ratio(f(c.dynGate), kinstr)
	m["mem.busy_share"] = ratio(f(c.memBusy), f(c.memPartCycles))
	m["mem.cache.l1_hit_rate"] = ratio(f(c.l1Hits), f(c.l1Acc))
	m["mem.cache.l2_hit_rate"] = ratio(f(c.l2Hits), f(c.l2Acc))
	m["mem.dram.row_hit_rate"] = ratio(f(c.rowHits), f(c.rowAcc))
}
