package gpu

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"gpushare/internal/fault"
	"gpushare/internal/mem"
	"gpushare/internal/smcore"
)

// envNoSMSleep reads GPUSHARE_NOSMSLEEP: any value other than empty or
// "0" disables per-SM sleep/wake, exactly like Config.NoSMSleep. Read
// per engine construction, not once, so tests can flip it with
// t.Setenv.
func envNoSMSleep() bool {
	v := os.Getenv("GPUSHARE_NOSMSLEEP")
	return v != "" && v != "0"
}

// envNoMemSleep reads GPUSHARE_NOMEMSLEEP: any value other than empty
// or "0" disables the event-driven memory tick, exactly like
// Config.NoMemSleep. Read per run, not once, so tests can flip it with
// t.Setenv.
func envNoMemSleep() bool {
	v := os.Getenv("GPUSHARE_NOMEMSLEEP")
	return v != "" && v != "0"
}

// missedWakeSlack is how far a MissedWake fault pushes a sleeping SM's
// wake cycle past its true horizon: long enough that the skipped range
// provably contains live work (a writeback deadline), short enough
// that the next invariant audit catches it quickly.
const missedWakeSlack = 64

// engineOpts configures the cycle engine's per-SM sleep machinery. The
// zero value disables sleep (the pre-sleep engine, used as the
// reference path by the determinism tests).
type engineOpts struct {
	sleep  bool
	ms     *mem.System // reply-arrival horizon + wake observer
	faults *fault.Plan // MissedWake injection point (nil in normal runs)
	// trace, when non-nil, observes every sleep entry (test hook).
	trace func(smID int, now, wakeAt int64)
}

// Per-SM sleep states. An SM is armed on a quiet cycle (counters
// snapshotted), modelled on the next cycle (per-cycle delta measured,
// wake cycle computed), and asleep after that: skipped in the fan-out
// until its wake cycle or an external event, its counters replayed
// arithmetically from the model delta.
const (
	smAwake uint8 = iota
	smArmed
	smAsleep
)

// smSleep is one SM's sleep-machine state, owned by the engine (the SM
// itself is sleep-oblivious; see smcore/sleep.go).
type smSleep struct {
	state   uint8
	retryAt int64 // awake: no re-arm before this cycle (damping)
	wakeAt  int64 // asleep: first cycle the SM must tick again
	rs      smcore.SleepState
}

// wakeEnt is one min-heap entry: SM (engine index) i must be woken no
// later than cycle at. Entries are never removed early — an SM woken
// ahead of schedule (reply, launch) leaves a stale entry behind, which
// the pop loop discards by re-checking the SM's live state.
type wakeEnt struct {
	at int64
	i  int
}

// cycleEngine advances the SM array one cycle at a time, either inline
// (workers <= 1, the exact sequential order the simulator has always
// used) or fanned across a pool of persistent worker goroutines with a
// barrier per cycle.
//
// Parallel cycles are bit-identical to sequential ones: during the
// parallel phase every SM is confined to its own state (plus read-only
// global memory and its private reply port), with stores and outgoing
// line requests staged per SM; after the barrier the engine flushes the
// staging buffers in ascending SM index, reproducing the sequential
// engine's interconnect arrival order exactly. See DESIGN.md.
//
// With sleep enabled the per-cycle fan-out covers only awake SMs (the
// active list, ascending engine index), so sleeping SMs cost nothing;
// transitions and wakes run on the main goroutine in ascending index
// order, keeping every observable interleaving identical to the
// sleep-off engine.
type cycleEngine struct {
	sms     []*smcore.SM
	workers int
	opt     engineOpts

	// Per-SM results for the current cycle. Each index is written by
	// exactly one worker and read by the main goroutine after the
	// barrier, so no further synchronization is needed.
	issued []bool
	errs   []error

	// active lists the engine indices ticking this cycle, ascending.
	// Without sleep it is all SMs, built once.
	active []int

	// Sleep state (nil without sleep). byID maps sm.ID to engine index
	// (they differ in placed multi-tenant runs, where the engine holds a
	// compacted slice); the memory system addresses SMs by ID.
	st   []smSleep
	heap []wakeEnt
	byID []int

	start chan int64 // one token per worker per cycle
	wg    sync.WaitGroup
	next  atomic.Int64 // work-stealing cursor into active
	once  sync.Once
}

// newCycleEngine builds the engine. workers of 0 or 1 select the
// sequential in-line path, which spawns nothing; 2 or more start a
// worker pool of that size, capped at the SM count.
func newCycleEngine(sms []*smcore.SM, workers int, opt engineOpts) *cycleEngine {
	if workers > len(sms) {
		workers = len(sms)
	}
	e := &cycleEngine{sms: sms, workers: workers, opt: opt}
	e.active = make([]int, len(sms))
	for i := range e.active {
		e.active[i] = i
	}
	e.issued = make([]bool, len(sms))
	if opt.sleep {
		e.st = make([]smSleep, len(sms))
		maxID := 0
		for _, sm := range sms {
			if sm.ID > maxID {
				maxID = sm.ID
			}
		}
		e.byID = make([]int, maxID+1)
		for i := range e.byID {
			e.byID[i] = -1
		}
		for i, sm := range sms {
			e.byID[sm.ID] = i
		}
		// Replies pushed toward a sleeping SM after its wake cycle was
		// computed must shorten the sleep; ms.Tick runs on the main
		// goroutine, so the callback touches engine state safely.
		opt.ms.SetReplyObserver(e.onReply)
	}
	if workers > 1 {
		e.errs = make([]error, len(sms))
		e.start = make(chan int64)
		for _, sm := range sms {
			sm.SetStaged(true)
		}
		for w := 0; w < workers; w++ {
			go e.worker()
		}
	}
	return e
}

func (e *cycleEngine) worker() {
	for now := range e.start {
		for {
			i := int(e.next.Add(1)) - 1
			if i >= len(e.active) {
				break
			}
			si := e.active[i]
			issued, err := e.sms[si].Tick(now)
			e.issued[si] = issued
			e.errs[si] = err
		}
		e.wg.Done()
	}
}

// tick runs one cycle across all awake SMs and reports whether any
// issued an instruction. On error the lowest-index SM's error is
// returned (the same one the sequential engine would surface first).
func (e *cycleEngine) tick(now int64) (bool, error) {
	if e.opt.sleep {
		e.processWakes(now)
		e.active = e.active[:0]
		for i := range e.sms {
			if e.st[i].state != smAsleep {
				e.active = append(e.active, i)
			}
		}
	}
	any := false
	if e.workers <= 1 {
		for _, si := range e.active {
			issued, err := e.sms[si].Tick(now)
			if err != nil {
				return false, err
			}
			e.issued[si] = issued
			any = any || issued
		}
	} else if len(e.active) == 1 {
		// One awake SM: skip the barrier, but keep the staged-mode
		// flush (workers > 1 SMs always run staged).
		si := e.active[0]
		issued, err := e.sms[si].Tick(now)
		if err != nil {
			return false, err
		}
		e.issued[si] = issued
		any = issued
		e.sms[si].FlushMem(now)
	} else if len(e.active) > 1 {
		e.next.Store(0)
		e.wg.Add(e.workers)
		for w := 0; w < e.workers; w++ {
			e.start <- now
		}
		e.wg.Wait()
		for _, si := range e.active {
			if e.errs[si] != nil {
				return false, e.errs[si]
			}
			any = any || e.issued[si]
		}
		// Post-barrier merge: publish staged stores and line requests in
		// ascending SM order — the sequential interleaving. Sleeping SMs
		// have empty staging buffers (they did not tick), so skipping
		// them cannot reorder anything.
		for _, si := range e.active {
			e.sms[si].FlushMem(now)
		}
	}
	if e.opt.sleep {
		e.transitions(now)
	}
	return any, nil
}

// processWakes wakes every SM whose wake cycle has arrived, before the
// cycle's fan-out. Stale heap entries (the SM was woken early, or its
// wake cycle was shortened by a reply) are discarded.
func (e *cycleEngine) processWakes(now int64) {
	for len(e.heap) > 0 && e.heap[0].at <= now {
		ent := e.heapPop()
		st := &e.st[ent.i]
		if st.state != smAsleep || st.wakeAt > now {
			continue // stale entry
		}
		// Materialize the skipped quiet cycles up to the end of the
		// previous cycle; this cycle is ticked normally.
		e.sms[ent.i].SleepReplayTo(&st.rs, now-1)
		st.state = smAwake
		st.retryAt = 0
	}
}

// transitions runs the per-SM sleep state machine after a cycle, in
// ascending engine-index order on the main goroutine.
//
// An awake SM that stayed quiet arms: its counters are snapshotted so
// the next cycle can serve as the sleep's model cycle. An armed SM
// that issued goes back to awake; one that stayed quiet measures the
// model delta and computes its wake cycle — the earliest of its local
// progress horizon (writeback deadlines, LSU/SFU release; see
// smcore.ProgressHorizon for the completeness argument) and the
// earliest reply the memory system could deliver to it. If that is
// further than the next cycle, the SM goes to sleep; replies pushed
// later wake it earlier via the reply observer, and block launches
// wake it via notifyLaunch.
func (e *cycleEngine) transitions(now int64) {
	for _, si := range e.active {
		st := &e.st[si]
		sm := e.sms[si]
		switch st.state {
		case smArmed:
			if e.issued[si] {
				st.state = smAwake
				continue
			}
			sm.SleepModel(&st.rs, now)
			h := sm.ProgressHorizon(now)
			fromLocal := true
			if r := e.opt.ms.NextReplyAt(sm.ID, now); r < h {
				h, fromLocal = r, false
			}
			if h <= now+1 {
				// Too close to pay for itself; don't re-probe before h.
				st.state = smAwake
				st.retryAt = h
				continue
			}
			// A MissedWake fault pushes the wake past the true horizon.
			// Only local-horizon sleeps are eligible: a reply-bounded
			// wake could be rescued by the reply itself, making the
			// fault invisible rather than caught.
			if fromLocal && e.opt.faults != nil &&
				e.opt.faults.Trip(fault.MissedWake, now, sm.ID, -1,
					fmt.Sprintf("sleeping SM%d wake pushed from cycle %d to %d", sm.ID, h, h+missedWakeSlack)) {
				h += missedWakeSlack
			}
			st.state = smAsleep
			st.wakeAt = h
			e.heapPush(wakeEnt{at: h, i: si})
			if e.opt.trace != nil {
				e.opt.trace(sm.ID, now, h)
			}
		case smAwake:
			if !e.issued[si] && now >= st.retryAt {
				sm.SleepArm(&st.rs)
				st.state = smArmed
			}
		}
	}
}

// onReply is the memory system's reply observer: a reply headed for a
// sleeping SM that would arrive before its wake cycle shortens the
// sleep. Armed SMs need no action — their wake cycle is computed after
// this cycle's memory tick, so NextReplyAt already sees this reply.
func (e *cycleEngine) onReply(smID int, readyAt int64) {
	if smID >= len(e.byID) {
		return
	}
	i := e.byID[smID]
	if i < 0 {
		return
	}
	st := &e.st[i]
	if st.state != smAsleep || readyAt >= st.wakeAt {
		return
	}
	st.wakeAt = readyAt
	e.heapPush(wakeEnt{at: readyAt, i: i})
}

// notifyLaunch must be called before LaunchBlock on SM i at cycle now:
// a launch mutates the SM's counters and state, so an armed SM's
// snapshot goes stale (disarm) and a sleeping SM must materialize its
// skipped cycles and wake to run the new block next cycle.
func (e *cycleEngine) notifyLaunch(i int, now int64) {
	if !e.opt.sleep {
		return
	}
	st := &e.st[i]
	switch st.state {
	case smArmed:
		st.state = smAwake
	case smAsleep:
		e.sms[i].SleepReplayTo(&st.rs, now)
		st.state = smAwake
		st.retryAt = 0
	}
}

// materialize replays every sleeping SM's counters up to the end of
// cycle `end` without waking it. Call it before anything that reads SM
// statistics mid-run: checkpoint payloads, trace snapshots, the
// end-of-run finalize, and per-slice stat collection.
func (e *cycleEngine) materialize(end int64) {
	if !e.opt.sleep {
		return
	}
	for i := range e.st {
		if e.st[i].state == smAsleep {
			e.sms[i].SleepReplayTo(&e.st[i].rs, end)
		}
	}
}

// ForEachAsleep reports every sleeping SM (engine index and wake
// cycle) to the invariant auditor's sleep class. The engine index
// matches the auditor's SM-slice index: both sides are built from the
// same slice.
func (e *cycleEngine) ForEachAsleep(f func(i int, wakeAt int64)) {
	if !e.opt.sleep {
		return
	}
	for i := range e.st {
		if e.st[i].state == smAsleep {
			f(i, e.st[i].wakeAt)
		}
	}
}

func (e *cycleEngine) heapPush(ent wakeEnt) {
	e.heap = append(e.heap, ent)
	j := len(e.heap) - 1
	for j > 0 {
		p := (j - 1) / 2
		if e.heap[p].at <= e.heap[j].at {
			break
		}
		e.heap[p], e.heap[j] = e.heap[j], e.heap[p]
		j = p
	}
}

func (e *cycleEngine) heapPop() wakeEnt {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		s := j
		if l < n && e.heap[l].at < e.heap[s].at {
			s = l
		}
		if r < n && e.heap[r].at < e.heap[s].at {
			s = r
		}
		if s == j {
			break
		}
		e.heap[s], e.heap[j] = e.heap[j], e.heap[s]
		j = s
	}
	return top
}

// close shuts the worker pool down and detaches the reply observer
// (time-sliced runs build one engine per slice against the persistent
// memory system). Safe to call multiple times and on a sequential
// engine.
func (e *cycleEngine) close() {
	if e.opt.sleep {
		e.opt.ms.SetReplyObserver(nil)
	}
	if e.start != nil {
		e.once.Do(func() { close(e.start) })
	}
}
