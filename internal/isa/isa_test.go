package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEvalIntegerOps(t *testing.T) {
	neg2 := uint32(0xfffffffe)
	cases := []struct {
		op      Opcode
		a, b, c uint32
		want    uint32
	}{
		{MOV, 42, 0, 0, 42},
		{IADD, 3, 4, 0, 7},
		{IADD, 0xffffffff, 1, 0, 0}, // wraparound
		{ISUB, 3, 5, 0, 0xfffffffe},
		{IMUL, 6, 7, 0, 42},
		{IMUL, 0x80000000, 2, 0, 0}, // overflow wraps
		{IMAD, 3, 4, 5, 17},
		{IMIN, neg2, 1, 0, neg2},
		{IMAX, neg2, 1, 0, 1},
		{AND, 0xf0f0, 0xff00, 0, 0xf000},
		{OR, 0xf0f0, 0x0f0f, 0, 0xffff},
		{XOR, 0xff, 0x0f, 0, 0xf0},
		{SHL, 1, 5, 0, 32},
		{SHL, 1, 37, 0, 32},                  // shift amount masked to 5 bits
		{SHR, 0x80000000, 31, 0, 1},          // logical
		{SRA, 0x80000000, 31, 0, ^uint32(0)}, // arithmetic
		{SELP, 11, 22, 1, 11},
		{SELP, 11, 22, 0, 22},
	}
	for _, c := range cases {
		if got := Eval(c.op, c.a, c.b, c.c); got != c.want {
			t.Errorf("Eval(%s, %#x, %#x, %#x) = %#x, want %#x", c.op, c.a, c.b, c.c, got, c.want)
		}
	}
}

func f2b(f float32) uint32 { return math.Float32bits(f) }

func TestEvalFloatOps(t *testing.T) {
	neg7 := uint32(0xfffffff9) // -7 as int32
	cases := []struct {
		op      Opcode
		a, b, c uint32
		want    uint32
	}{
		{FADD, f2b(1.5), f2b(2.25), 0, f2b(3.75)},
		{FSUB, f2b(1.5), f2b(2.25), 0, f2b(-0.75)},
		{FMUL, f2b(3), f2b(-2), 0, f2b(-6)},
		{FFMA, f2b(2), f2b(3), f2b(1), f2b(7)},
		{FMIN, f2b(-1), f2b(2), 0, f2b(-1)},
		{FMAX, f2b(-1), f2b(2), 0, f2b(2)},
		{FRCP, f2b(4), 0, 0, f2b(0.25)},
		{FSQRT, f2b(9), 0, 0, f2b(3)},
		{FEXP, f2b(3), 0, 0, f2b(8)},
		{FLOG, f2b(8), 0, 0, f2b(3)},
		{I2F, neg7, 0, 0, f2b(-7)},
		{F2I, f2b(-7.9), 0, 0, neg7},
	}
	for _, c := range cases {
		if got := Eval(c.op, c.a, c.b, c.c); got != c.want {
			t.Errorf("Eval(%s, %v, %v, %v) = %#x, want %#x", c.op, c.a, c.b, c.c, got, c.want)
		}
	}
}

func TestEvalCmp(t *testing.T) {
	neg2 := uint32(0xfffffffe)
	cases := []struct {
		cmp  CmpOp
		a, b uint32
		want bool
	}{
		{CmpEQ, 5, 5, true}, {CmpEQ, 5, 6, false},
		{CmpNE, 5, 6, true}, {CmpNE, 5, 5, false},
		{CmpLT, neg2, 1, true}, {CmpLT, 1, neg2, false},
		{CmpLE, 5, 5, true},
		{CmpGT, 1, neg2, true},
		{CmpGE, 5, 5, true},
		{CmpLTU, 1, neg2, true}, // unsigned: 1 < 0xfffffffe
		{CmpGEU, neg2, 1, true},
		{CmpFLT, f2b(-1), f2b(1), true},
		{CmpFGE, f2b(1), f2b(1), true},
	}
	for _, c := range cases {
		if got := EvalCmp(c.cmp, c.a, c.b); got != c.want {
			t.Errorf("EvalCmp(%s, %#x, %#x) = %v, want %v", c.cmp, c.a, c.b, got, c.want)
		}
	}
}

// TestShiftMaskProperty: shifts always mask the amount to 5 bits,
// matching hardware.
func TestShiftMaskProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		return Eval(SHL, a, b, 0) == a<<(b&31) &&
			Eval(SHR, a, b, 0) == a>>(b&31) &&
			Eval(SRA, a, b, 0) == uint32(int32(a)>>(b&31))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCmpTrichotomy: exactly one of <, ==, > holds for signed compares.
func TestCmpTrichotomy(t *testing.T) {
	f := func(a, b uint32) bool {
		lt := EvalCmp(CmpLT, a, b)
		eq := EvalCmp(CmpEQ, a, b)
		gt := EvalCmp(CmpGT, a, b)
		count := 0
		for _, v := range []bool{lt, eq, gt} {
			if v {
				count++
			}
		}
		return count == 1 &&
			EvalCmp(CmpLE, a, b) == (lt || eq) &&
			EvalCmp(CmpGE, a, b) == (gt || eq) &&
			EvalCmp(CmpNE, a, b) == !eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitOf(t *testing.T) {
	if UnitOf(FADD) != UnitSP || UnitOf(IMAD) != UnitSP {
		t.Error("ALU ops must be SP")
	}
	for _, op := range []Opcode{FRCP, FSQRT, FEXP, FLOG, FSIN} {
		if UnitOf(op) != UnitSFU {
			t.Errorf("%s must be SFU", op)
		}
	}
	for _, op := range []Opcode{LDG, STG, LDS, STS} {
		if UnitOf(op) != UnitMEM {
			t.Errorf("%s must be MEM", op)
		}
	}
	if UnitOf(LDP) != UnitSP {
		t.Error("LDP reads the param space, not memory: SP")
	}
}

func TestInstrHelpers(t *testing.T) {
	in := Instr{Op: IMAD, GuardPred: NoPred, Dst: Reg(7), A: Reg(1), B: Imm(3), C: Reg(2)}
	if r, ok := in.DstReg(); !ok || r != 7 {
		t.Errorf("DstReg = %d,%v", r, ok)
	}
	srcs := in.SrcRegs(nil)
	if len(srcs) != 2 || srcs[0] != 1 || srcs[1] != 2 {
		t.Errorf("SrcRegs = %v", srcs)
	}
	if in.MaxReg() != 7 {
		t.Errorf("MaxReg = %d", in.MaxReg())
	}
	bar := Instr{Op: BAR, GuardPred: NoPred}
	if bar.MaxReg() != -1 {
		t.Errorf("BAR MaxReg = %d, want -1", bar.MaxReg())
	}
	if _, ok := bar.DstReg(); ok {
		t.Error("BAR must not report a GPR destination")
	}
}

func TestStringsAreStable(t *testing.T) {
	// String methods feed the assembler; the mnemonics must be distinct.
	seen := map[string]Opcode{}
	for op := NOP; op < numOpcodes; op++ {
		s := op.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("opcodes %d and %d share mnemonic %q", prev, op, s)
		}
		seen[s] = op
	}
	if !NOP.Valid() || Opcode(250).Valid() {
		t.Error("Valid() wrong")
	}
}

// TestFFMANotFused pins FFMA to a rounded product followed by a rounded
// add. With a = b = 1+2^-12 the exact product 1+2^-11+2^-24 rounds (ties
// to even) to 1+2^-11, so adding c = -(1+2^-11) gives exactly 0. A fused
// multiply-add keeps the 2^-24 and returns 2^-24 instead, which is what
// a compiler would produce for a*b+c on hosts with an FMA instruction
// unless the product is explicitly converted.
func TestFFMANotFused(t *testing.T) {
	a := f2b(1 + 1.0/(1<<12))
	c := f2b(-(1 + 1.0/(1<<11)))
	const fused = 0x33800000 // 2^-24
	if got := Eval(FFMA, a, a, c); got != 0 {
		t.Errorf("Eval(FFMA) = %#x, want 0 (unfused); fused would be %#x", got, uint32(fused))
	}
	var out, av, cv [Lanes]uint32
	for i := range av {
		av[i], cv[i] = a, c
	}
	EvalLanes(FFMA, &out, &av, &av, &cv)
	for i, got := range out {
		if got != 0 {
			t.Fatalf("EvalLanes(FFMA) lane %d = %#x, want 0 (unfused)", i, got)
		}
	}
}
