package warp

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
)

// refOperand is the per-lane operand read the executor used before it
// went column-wise. It is kept as the oracle for TestExecuteMatchesPerLane.
func (w *State) refOperand(o isa.Operand, lane int, env *Env) uint32 {
	switch o.Kind {
	case isa.OpReg:
		return w.Reg(int(o.Reg), lane)
	case isa.OpImm:
		return uint32(o.Imm)
	case isa.OpSpecial:
		switch o.Spec {
		case isa.SrTid:
			t := w.WarpInCta*kernel.WarpSize + lane
			if env.dimY() > 1 {
				return uint32(t % env.BlockDim)
			}
			return uint32(t)
		case isa.SrTidY:
			return uint32((w.WarpInCta*kernel.WarpSize + lane) / env.BlockDim)
		case isa.SrCtaid:
			return uint32(env.CtaID)
		case isa.SrCtaidY:
			return uint32(env.CtaIDY)
		case isa.SrNtid:
			return uint32(env.BlockDim)
		case isa.SrNtidY:
			return uint32(env.dimY())
		case isa.SrNctaid:
			return uint32(env.GridDim)
		case isa.SrNctaidY:
			if env.GridDimY > 1 {
				return uint32(env.GridDimY)
			}
			return 1
		case isa.SrLane:
			return uint32(lane)
		case isa.SrWarpCta:
			return uint32(w.WarpInCta)
		}
	}
	return 0
}

// refExecute is the per-lane executor: one operand decode and one
// opcode dispatch per lane. Control flow (BRA, EXIT, BAR) is shared
// with Execute and not covered here.
func (w *State) refExecute(in *isa.Instr, env *Env) (Result, error) {
	_, mask := w.simt.Top()
	active := w.guardMask(in, mask)
	res := Result{Kind: ResNormal, Active: active}

	switch in.Op {
	case isa.NOP:

	case isa.SETP:
		p := int(in.Dst.Reg)
		var set uint32
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if active&(1<<lane) == 0 {
				continue
			}
			if isa.EvalCmp(in.Cmp, w.refOperand(in.A, lane, env), w.refOperand(in.B, lane, env)) {
				set |= 1 << lane
			}
		}
		w.preds[p] = (w.preds[p] &^ active) | set

	case isa.SELP:
		d := int(in.Dst.Reg)
		pm := w.preds[in.C.Reg]
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if active&(1<<lane) == 0 {
				continue
			}
			a := w.refOperand(in.A, lane, env)
			bv := w.refOperand(in.B, lane, env)
			var c uint32
			if pm&(1<<lane) != 0 {
				c = 1
			}
			w.SetReg(d, lane, isa.Eval(isa.SELP, a, bv, c))
		}

	case isa.LDP:
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if active&(1<<lane) != 0 {
				w.SetReg(int(in.Dst.Reg), lane, env.Params[in.Off])
			}
		}

	case isa.LDG, isa.STG, isa.LDS, isa.STS:
		addrs := &w.gaddrs
		if isa.IsSharedMem(in.Op) {
			addrs = &w.saddrs
		}
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if active&(1<<lane) != 0 {
				addrs[lane] = w.refOperand(in.A, lane, env) + uint32(in.Off)
			}
		}
		res.IsStore = in.Op == isa.STG || in.Op == isa.STS
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if active&(1<<lane) == 0 {
				continue
			}
			var err error
			switch in.Op {
			case isa.LDG:
				w.SetReg(int(in.Dst.Reg), lane, env.Gmem.Load32(addrs[lane]))
			case isa.STG:
				env.Gmem.Store32(addrs[lane], w.refOperand(in.B, lane, env))
			case isa.LDS:
				var v uint32
				if v, err = load32(env.Smem, addrs[lane]); err == nil {
					w.SetReg(int(in.Dst.Reg), lane, v)
				}
			case isa.STS:
				err = store32(env.Smem, addrs[lane], w.refOperand(in.B, lane, env))
			}
			if err != nil {
				return res, fmt.Errorf("warp %d lane %d: %w", w.ID, lane, err)
			}
		}
		if isa.IsSharedMem(in.Op) {
			res.SharedAddrs = addrs
		} else {
			res.GlobalAddrs = addrs
		}

	default: // plain ALU / SFU
		d := int(in.Dst.Reg)
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if active&(1<<lane) == 0 {
				continue
			}
			a := w.refOperand(in.A, lane, env)
			bv := w.refOperand(in.B, lane, env)
			c := w.refOperand(in.C, lane, env)
			w.SetReg(d, lane, isa.Eval(in.Op, a, bv, c))
		}
	}

	w.simt.Advance()
	res.Finished = w.simt.Done()
	return res, nil
}

// clone returns an independent copy of the warp's execution state.
func (w *State) clone() *State {
	c := *w
	c.regs = append([]uint32(nil), w.regs...)
	c.simt.stack = append([]simtEntry(nil), w.simt.stack...)
	return &c
}

// randOperand draws a source operand: a register (often r7, which
// holds scratchpad-sized addresses), an immediate, any special
// register, or nothing.
func randOperand(rng *rand.Rand, nregs int) isa.Operand {
	switch rng.Intn(6) {
	case 0, 1:
		return isa.Reg(rng.Intn(nregs))
	case 2:
		return isa.Reg(nregs - 1)
	case 3:
		return isa.Imm(int32(rng.Uint32() >> uint(rng.Intn(32))))
	case 4:
		return isa.Sreg(isa.Special(rng.Intn(11))) // includes one undefined special
	}
	return isa.None
}

// TestExecuteMatchesPerLane runs the column-wise Execute against the
// per-lane reference executor on random warp states and instructions:
// every ALU/SFU opcode plus SETP, SELP, LDP and global and scratchpad
// loads and stores; partial SIMT masks and guards that leave some, all
// or no lanes active; destinations that are also sources; and special
// registers under 1-D and 2-D blocks. Registers, predicates, memory,
// the Result and any functional fault must agree exactly.
func TestExecuteMatchesPerLane(t *testing.T) {
	const nregs = 8
	rng := rand.New(rand.NewSource(1))
	envs := []Env{
		{CtaID: 3, GridDim: 10, BlockDim: 64, Params: []uint32{111, 222}},
		{CtaID: 1, CtaIDY: 2, GridDim: 4, GridDimY: 3, BlockDim: 16, BlockDimY: 6, Params: []uint32{7}},
		{CtaID: 5, GridDim: 9, GridDimY: 1, BlockDim: 24, BlockDimY: 4, Params: []uint32{9, 8, 7}},
	}
	var ops []isa.Opcode
	for op := isa.NOP; op.Valid(); op++ {
		if !isa.IsControl(op) {
			ops = append(ops, op)
		}
	}
	for iter := 0; iter < 20000; iter++ {
		env := envs[iter%len(envs)]
		lanes := LanesMask(kernel.WarpSize)
		if rng.Intn(2) == 0 { // a partial last warp
			lanes = LanesMask(1 + rng.Intn(kernel.WarpSize))
		}
		w := NewState(nregs, lanes)
		w.WarpInCta = rng.Intn(3)
		if rng.Intn(3) == 0 { // a diverged region: part of the lanes
			w.simt.stack[0].mask &= rng.Uint32() | 1
		}
		for i := range w.regs {
			if rng.Intn(2) == 0 {
				w.regs[i] = rng.Uint32()
			} else {
				w.regs[i] = uint32(rng.Intn(40))
			}
		}
		for lane := 0; lane < kernel.WarpSize; lane++ { // r7: addresses in the 512-byte scratchpad
			w.SetReg(nregs-1, lane, uint32(rng.Intn(480)))
		}
		if rng.Intn(8) == 0 { // one lane faults out of bounds
			w.SetReg(nregs-1, rng.Intn(kernel.WarpSize), 4096)
		}
		for p := range w.preds {
			w.preds[p] = rng.Uint32()
		}
		w.preds[1], w.preds[2] = 0, ^uint32(0)

		in := isa.Instr{
			Op:        ops[rng.Intn(len(ops))],
			GuardPred: isa.NoPred,
			A:         randOperand(rng, nregs),
			B:         randOperand(rng, nregs),
			C:         randOperand(rng, nregs),
			Cmp:       isa.CmpOp(rng.Intn(11)), // includes one undefined comparison
			Dst:       isa.Reg(rng.Intn(nregs)),
		}
		if rng.Intn(3) == 0 { // destination is also a source
			in.Dst = in.A
			if in.Dst.Kind != isa.OpReg {
				in.Dst = isa.Reg(rng.Intn(nregs))
				in.A = in.Dst
			}
		}
		if rng.Intn(2) == 0 {
			in.GuardPred = int8(rng.Intn(kernel.MaxPredRegs)) // p1: no lanes, p2: all lanes
			in.GuardNeg = rng.Intn(2) == 0
		}
		switch in.Op {
		case isa.SETP:
			in.Dst = isa.Pred(rng.Intn(kernel.MaxPredRegs))
		case isa.SELP:
			in.C = isa.Pred(rng.Intn(kernel.MaxPredRegs))
		case isa.LDP:
			in.Off = int32(rng.Intn(len(env.Params)))
		case isa.LDS, isa.STS, isa.LDG, isa.STG:
			if rng.Intn(4) != 0 {
				in.A = isa.Reg(nregs - 1)
			}
			in.Off = int32(rng.Intn(16))
		}

		gm1, gm2 := newFakeMem(), newFakeMem()
		for a := uint32(0); a < 512; a += 4 {
			v := rng.Uint32()
			gm1.m[a], gm2.m[a] = v, v
		}
		smem := make([]byte, 512)
		rng.Read(smem)
		env1, env2 := env, env
		env1.Gmem, env1.Smem = gm1, smem
		env2.Gmem, env2.Smem = gm2, bytes.Clone(smem)

		ref := w.clone()
		got, gotErr := w.Execute(&in, &env1)
		want, wantErr := ref.refExecute(&in, &env2)

		ctx := func() string {
			return fmt.Sprintf("iter %d: %s (env %d, warp %d)", iter, in.String(), iter%len(envs), w.WarpInCta)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: error %v, per-lane %v", ctx(), gotErr, wantErr)
		}
		if got.Kind != want.Kind || got.Active != want.Active || got.IsStore != want.IsStore || got.Finished != want.Finished {
			t.Fatalf("%s: result %+v, per-lane %+v", ctx(), got, want)
		}
		if (got.GlobalAddrs == nil) != (want.GlobalAddrs == nil) || (got.SharedAddrs == nil) != (want.SharedAddrs == nil) {
			t.Fatalf("%s: address buffers differ", ctx())
		}
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if got.Active&(1<<lane) == 0 {
				continue
			}
			if got.GlobalAddrs != nil && got.GlobalAddrs[lane] != want.GlobalAddrs[lane] {
				t.Fatalf("%s: lane %d global address %#x, per-lane %#x", ctx(), lane, got.GlobalAddrs[lane], want.GlobalAddrs[lane])
			}
			if got.SharedAddrs != nil && got.SharedAddrs[lane] != want.SharedAddrs[lane] {
				t.Fatalf("%s: lane %d shared address %#x, per-lane %#x", ctx(), lane, got.SharedAddrs[lane], want.SharedAddrs[lane])
			}
		}
		for r := 0; r < nregs; r++ {
			for lane := 0; lane < kernel.WarpSize; lane++ {
				if g, x := w.Reg(r, lane), ref.Reg(r, lane); g != x {
					t.Fatalf("%s: r%d lane %d = %#x, per-lane %#x", ctx(), r, lane, g, x)
				}
			}
		}
		if w.preds != ref.preds {
			t.Fatalf("%s: predicates %x, per-lane %x", ctx(), w.preds, ref.preds)
		}
		if !maps.Equal(gm1.m, gm2.m) || !bytes.Equal(env1.Smem, env2.Smem) {
			t.Fatalf("%s: memory differs", ctx())
		}
	}
}

// TestNOPChangesNoRegister: a nop writes nothing, guarded or not.
func TestNOPChangesNoRegister(t *testing.T) {
	env, _ := testEnv()
	w := NewState(2, LanesMask(32))
	mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Imm(5)}, env)
	mustExec(t, w, &isa.Instr{Op: isa.NOP, GuardPred: isa.NoPred}, env)
	if got := w.Reg(0, 3); got != 5 {
		t.Fatalf("r0 after nop = %d, want 5", got)
	}
}

// BenchmarkWarpExecute measures one Execute of a fully active warp on
// the hot paths: a three-register ALU op, a SETP with an immediate, and
// a scratchpad load. None may allocate.
func BenchmarkWarpExecute(b *testing.B) {
	cases := []struct {
		name string
		in   isa.Instr
	}{
		{"alu", isa.Instr{Op: isa.FFMA, GuardPred: isa.NoPred, Dst: isa.Reg(1), A: isa.Reg(1), B: isa.Reg(2), C: isa.Reg(3)}},
		{"setp", isa.Instr{Op: isa.SETP, GuardPred: isa.NoPred, Cmp: isa.CmpLT, Dst: isa.Pred(0), A: isa.Reg(2), B: isa.Imm(16)}},
		{"lds", isa.Instr{Op: isa.LDS, GuardPred: isa.NoPred, Dst: isa.Reg(3), A: isa.Reg(0), Off: 4}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			env, _ := testEnv()
			w := NewState(4, LanesMask(kernel.WarpSize))
			for lane := 0; lane < kernel.WarpSize; lane++ {
				w.SetReg(0, lane, uint32(lane*4))
				w.SetReg(1, lane, uint32(lane))
				w.SetReg(2, lane, uint32(lane*7))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.simt.stack[0].pc = 0 // re-execute the same instruction
				if _, err := w.Execute(&c.in, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
