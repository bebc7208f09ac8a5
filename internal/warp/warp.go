package warp

import (
	"fmt"
	"math/bits"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
)

// GlobalMem is the interface the executor uses to touch global memory.
// The simulator's paged backing store implements it.
type GlobalMem interface {
	Load32(addr uint32) uint32
	Store32(addr uint32, v uint32)
}

// Env supplies everything outside the warp needed to execute: block
// coordinates, kernel arguments, and the memory spaces. The y dimensions
// default to 1 (a zero value is treated as 1).
type Env struct {
	CtaID     int // block x-index in the grid
	CtaIDY    int // block y-index
	GridDim   int // grid x dimension in blocks
	GridDimY  int
	BlockDim  int // block x dimension in threads
	BlockDimY int
	Params    []uint32
	Gmem      GlobalMem
	Smem      []byte // this block's scratchpad
}

// dimY returns the effective y block dimension.
func (e *Env) dimY() int {
	if e.BlockDimY > 1 {
		return e.BlockDimY
	}
	return 1
}

// ResultKind classifies what Execute did.
type ResultKind uint8

// Execute result kinds.
const (
	ResNormal  ResultKind = iota // ALU/memory instruction, PC advanced
	ResBarrier                   // warp arrived at a barrier
	ResExit                      // some or all lanes exited
)

// Result describes one executed instruction for the timing model.
type Result struct {
	Kind   ResultKind
	Active uint32 // lanes that actually executed (guard applied)

	// For global memory instructions: per-lane byte addresses, valid for
	// lanes in Active. The timing model coalesces these into cache-line
	// transactions.
	GlobalAddrs *[kernel.WarpSize]uint32
	// For scratchpad instructions: per-lane byte addresses within the
	// block's scratchpad, used for bank-conflict modelling and the
	// shared-region access check (Fig. 4 of the paper).
	SharedAddrs *[kernel.WarpSize]uint32
	IsStore     bool

	Finished bool // warp has no live lanes left
}

// State is one warp's execution state.
type State struct {
	ID        int   // hardware warp slot within the SM
	DynID     int64 // dynamic (launch-order) warp id; lower = older
	BlockSlot int   // hardware block slot within the SM
	WarpInCta int   // warp index within its thread block

	Lanes uint32 // lanes that exist (last warp of a block may be partial)

	simt  SIMT
	regs  []uint32 // regsPerThread x 32, lane-major within a register
	preds [kernel.MaxPredRegs]uint32

	nregs int

	// Scratch address buffers handed out via Result.GlobalAddrs /
	// SharedAddrs. The core consumes a Result before this warp executes
	// again, so reusing them is safe and removes a 128-byte allocation
	// per memory instruction. Lanes outside Result.Active hold stale
	// values, which Result already documents as invalid.
	gaddrs [kernel.WarpSize]uint32
	saddrs [kernel.WarpSize]uint32

	// Operand and result columns for Execute: immediates and special
	// registers are resolved into opA/opB/opC, and a partially active
	// ALU result is staged in out before its masked merge.
	opA, opB, opC, out column
}

// NewState allocates warp state for a kernel with nregs registers per
// thread. lanes is the existence mask.
func NewState(nregs int, lanes uint32) *State {
	return &State{
		Lanes: lanes,
		simt:  NewSIMT(lanes),
		regs:  make([]uint32, nregs*kernel.WarpSize),
		nregs: nregs,
	}
}

// Reset reinitializes the warp for a fresh block launch, reusing the
// register backing store.
func (w *State) Reset(lanes uint32) {
	w.Lanes = lanes
	w.simt = NewSIMT(lanes)
	clear(w.regs)
	clear(w.preds[:])
}

// Finished reports whether every lane has exited.
func (w *State) Finished() bool { return w.simt.Done() }

// SIMTDepth returns the reconvergence-stack depth (0 once finished).
func (w *State) SIMTDepth() int { return w.simt.Depth() }

// AuditSIMT checks the warp's reconvergence stack: entries must be
// well nested (each child mask a subset of its parent, siblings
// disjoint) and no active lane may lie outside the existence mask.
func (w *State) AuditSIMT() error {
	if w.simt.Done() {
		return nil
	}
	if !w.simt.WellFormed() {
		return fmt.Errorf("warp %d: SIMT stack not well nested (depth %d)", w.ID, w.simt.Depth())
	}
	if ghost := w.simt.ActiveUnion() &^ w.Lanes; ghost != 0 {
		return fmt.Errorf("warp %d: SIMT stack activates non-existent lanes %#x", w.ID, ghost)
	}
	return nil
}

// PC returns the current PC and active mask; ok is false once finished.
func (w *State) PC() (pc int, mask uint32, ok bool) {
	if w.simt.Done() {
		return 0, 0, false
	}
	pc, mask = w.simt.Top()
	return pc, mask, true
}

// Reg returns the value of register r in the given lane.
func (w *State) Reg(r, lane int) uint32 { return w.regs[r*kernel.WarpSize+lane] }

// SetReg sets register r in the given lane.
func (w *State) SetReg(r, lane int, v uint32) { w.regs[r*kernel.WarpSize+lane] = v }

// Pred returns the mask of predicate register p.
func (w *State) Pred(p int) uint32 { return w.preds[p] }

// guardMask returns the lanes of mask that pass the instruction's guard.
func (w *State) guardMask(in *isa.Instr, mask uint32) uint32 {
	if !in.Guarded() {
		return mask
	}
	pm := w.preds[in.GuardPred]
	if in.GuardNeg {
		pm = ^pm
	}
	return mask & pm
}

// column is one value per lane of a warp: a register's slice of the
// register file, or a source operand resolved for the whole warp.
type column = [kernel.WarpSize]uint32

// zeroColumn is the value of an absent operand. It is only ever read.
var zeroColumn column

// reg returns register r's column, aliasing the register file.
func (w *State) reg(r uint8) *column {
	return (*column)(w.regs[int(r)*kernel.WarpSize:])
}

// operand resolves source operand o for all 32 lanes at once: a
// register aliases its column of the register file, an immediate is
// broadcast into buf, a special register is computed per lane into buf,
// and an absent operand reads as zero.
func (w *State) operand(o isa.Operand, env *Env, buf *column) *column {
	switch o.Kind {
	case isa.OpReg:
		return w.reg(o.Reg)
	case isa.OpImm:
		broadcast(buf, uint32(o.Imm))
	case isa.OpSpecial:
		w.special(o.Spec, env, buf)
	default:
		return &zeroColumn
	}
	return buf
}

// special computes special register s for every lane into buf.
func (w *State) special(s isa.Special, env *Env, buf *column) {
	base := w.WarpInCta * kernel.WarpSize // linear thread id of lane 0
	switch s {
	case isa.SrTid:
		if env.dimY() > 1 {
			for lane := range buf {
				buf[lane] = uint32((base + lane) % env.BlockDim)
			}
			return
		}
		for lane := range buf {
			buf[lane] = uint32(base + lane)
		}
	case isa.SrTidY:
		for lane := range buf {
			buf[lane] = uint32((base + lane) / env.BlockDim)
		}
	case isa.SrLane:
		for lane := range buf {
			buf[lane] = uint32(lane)
		}
	case isa.SrCtaid:
		broadcast(buf, uint32(env.CtaID))
	case isa.SrCtaidY:
		broadcast(buf, uint32(env.CtaIDY))
	case isa.SrNtid:
		broadcast(buf, uint32(env.BlockDim))
	case isa.SrNtidY:
		broadcast(buf, uint32(env.dimY()))
	case isa.SrNctaid:
		broadcast(buf, uint32(env.GridDim))
	case isa.SrNctaidY:
		broadcast(buf, uint32(max(env.GridDimY, 1)))
	case isa.SrWarpCta:
		broadcast(buf, uint32(w.WarpInCta))
	default:
		*buf = zeroColumn
	}
}

// broadcast sets every lane of buf to v.
func broadcast(buf *column, v uint32) {
	for lane := range buf {
		buf[lane] = v
	}
}

// addresses writes the effective byte address (A + Off) of every lane
// in active into addrs.
func (w *State) addresses(in *isa.Instr, env *Env, active uint32, addrs *column) {
	a := w.operand(in.A, env, &w.opA)
	off := uint32(in.Off)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addrs[lane] = a[lane] + off
	}
}

// EffAddrs computes the effective per-lane byte addresses of a memory
// instruction without executing it, for pre-issue checks (scratchpad
// shared-region detection and coalescing cost estimation). It returns the
// set of lanes that would execute after applying the guard.
func (w *State) EffAddrs(in *isa.Instr, env *Env, addrs *[kernel.WarpSize]uint32) uint32 {
	_, mask := w.simt.Top()
	active := w.guardMask(in, mask)
	w.addresses(in, env, active, addrs)
	return active
}

// Execute functionally executes the instruction at the warp's current PC
// and advances control flow. The caller (the SM issue stage) is
// responsible for having verified that in is the instruction at the
// current PC and that all issue conditions hold. A non-nil error means
// the kernel itself is faulty (a barrier inside divergent control flow,
// a scratchpad access out of bounds); the warp state is left as-is and
// the simulation must abort.
//
// Execution is column-wise: each source operand is resolved once for
// the whole warp and the opcode is dispatched once (isa.EvalLanes), not
// once per lane.
func (w *State) Execute(in *isa.Instr, env *Env) (Result, error) {
	_, mask := w.simt.Top()
	active := w.guardMask(in, mask)
	res := Result{Kind: ResNormal, Active: active}

	switch in.Op {
	case isa.NOP:

	case isa.BRA:
		w.simt.Branch(active, in.Target, in.Reconv)
		res.Finished = w.simt.Done()
		return res, nil

	case isa.EXIT:
		res.Kind = ResExit
		res.Finished = w.simt.ExitLanes(active)
		return res, nil

	case isa.BAR:
		if w.simt.Depth() > 1 {
			return res, fmt.Errorf("warp %d: barrier executed while diverged (depth %d); "+
				"kernels must only place bar.sync at convergence points", w.ID, w.simt.Depth())
		}
		res.Kind = ResBarrier

	case isa.SETP:
		p := in.Dst.Reg
		set := isa.EvalCmpLanes(in.Cmp, w.operand(in.A, env, &w.opA), w.operand(in.B, env, &w.opB))
		w.preds[p] = (w.preds[p] &^ active) | (set & active)

	case isa.SELP:
		pm := w.preds[in.C.Reg]
		for lane := range w.opC {
			w.opC[lane] = pm >> lane & 1
		}
		w.writeLanes(in, active, w.operand(in.A, env, &w.opA), w.operand(in.B, env, &w.opB), &w.opC)

	case isa.LDP:
		v := env.Params[in.Off]
		d := w.reg(in.Dst.Reg)
		for m := active; m != 0; m &= m - 1 {
			d[bits.TrailingZeros32(m)] = v
		}

	case isa.LDG, isa.STG:
		addrs := &w.gaddrs
		w.addresses(in, env, active, addrs)
		if in.Op == isa.LDG {
			d := w.reg(in.Dst.Reg)
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				d[lane] = env.Gmem.Load32(addrs[lane])
			}
		} else {
			res.IsStore = true
			v := w.operand(in.B, env, &w.opB)
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				env.Gmem.Store32(addrs[lane], v[lane])
			}
		}
		res.GlobalAddrs = addrs

	case isa.LDS, isa.STS:
		addrs := &w.saddrs
		w.addresses(in, env, active, addrs)
		if in.Op == isa.LDS {
			d := w.reg(in.Dst.Reg)
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				v, err := load32(env.Smem, addrs[lane])
				if err != nil {
					return res, fmt.Errorf("warp %d lane %d: %w", w.ID, lane, err)
				}
				d[lane] = v
			}
		} else {
			res.IsStore = true
			v := w.operand(in.B, env, &w.opB)
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				if err := store32(env.Smem, addrs[lane], v[lane]); err != nil {
					return res, fmt.Errorf("warp %d lane %d: %w", w.ID, lane, err)
				}
			}
		}
		res.SharedAddrs = addrs

	default: // plain ALU / SFU
		w.writeLanes(in, active,
			w.operand(in.A, env, &w.opA), w.operand(in.B, env, &w.opB), w.operand(in.C, env, &w.opC))
	}

	w.simt.Advance()
	res.Finished = w.simt.Done()
	return res, nil
}

// writeLanes evaluates an ALU/SFU opcode over whole columns and writes
// the result to the destination register's active lanes. With every
// lane active the result goes straight into the register (EvalLanes
// tolerates a destination that is also a source); otherwise it goes
// through a scratch column and is merged under the mask.
func (w *State) writeLanes(in *isa.Instr, active uint32, a, b, c *column) {
	d := w.reg(in.Dst.Reg)
	if active == ^uint32(0) {
		isa.EvalLanes(in.Op, d, a, b, c)
		return
	}
	if active == 0 {
		return
	}
	isa.EvalLanes(in.Op, &w.out, a, b, c)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		d[lane] = w.out[lane]
	}
}

// load32 reads a little-endian 32-bit word from scratchpad. Accesses are
// clamped to word alignment; an out-of-bounds access denotes a kernel
// bug and is reported as an error.
func load32(b []byte, addr uint32) (uint32, error) {
	a := addr &^ 3
	if int64(a)+4 > int64(len(b)) {
		return 0, fmt.Errorf("scratchpad load at byte %d out of bounds (size %d)", addr, len(b))
	}
	return uint32(b[a]) | uint32(b[a+1])<<8 | uint32(b[a+2])<<16 | uint32(b[a+3])<<24, nil
}

func store32(b []byte, addr uint32, v uint32) error {
	a := addr &^ 3
	if int64(a)+4 > int64(len(b)) {
		return fmt.Errorf("scratchpad store at byte %d out of bounds (size %d)", addr, len(b))
	}
	b[a] = byte(v)
	b[a+1] = byte(v >> 8)
	b[a+2] = byte(v >> 16)
	b[a+3] = byte(v >> 24)
	return nil
}

// LanesMask returns a mask with the low n lanes set.
func LanesMask(n int) uint32 {
	if n >= kernel.WarpSize {
		return ^uint32(0)
	}
	return 1<<n - 1
}

// PopCount returns the number of set lanes in a mask.
func PopCount(m uint32) int { return bits.OnesCount32(m) }
