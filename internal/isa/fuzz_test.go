package isa

import (
	"math"
	"testing"
)

// FuzzEval exercises the scalar evaluator over the full opcode byte
// space, defined opcodes or not: it must never panic, must be
// deterministic, must return 0 for anything it does not implement, and
// simple algebraic identities must hold for the ops that have them.
func FuzzEval(f *testing.F) {
	f.Add(uint8(IADD), uint32(1), uint32(2), uint32(3))
	f.Add(uint8(IMAD), uint32(0x80000000), uint32(0xffffffff), uint32(7))
	f.Add(uint8(SHL), uint32(1), uint32(300), uint32(0))
	f.Add(uint8(FSQRT), f32bits(2), uint32(0), uint32(0))
	f.Add(uint8(FRCP), uint32(0), uint32(0), uint32(0))    // 1/0
	f.Add(uint8(FLOG), f32bits(-1), uint32(0), uint32(0))  // NaN
	f.Add(uint8(F2I), f32bits(3e18), uint32(0), uint32(0)) // overflow
	f.Add(uint8(SELP), uint32(7), uint32(9), uint32(1))
	f.Add(uint8(numOpcodes), uint32(0xffffffff), uint32(0), uint32(0))
	f.Add(uint8(255), uint32(1), uint32(2), uint32(3))
	f.Fuzz(func(t *testing.T, opb uint8, a, b, c uint32) {
		op := Opcode(opb)
		got := Eval(op, a, b, c)
		if again := Eval(op, a, b, c); again != got {
			t.Fatalf("%s(%#x,%#x,%#x) is non-deterministic: %#x then %#x", op, a, b, c, got, again)
		}
		switch op {
		case MOV:
			if got != a {
				t.Fatalf("mov %#x = %#x", a, got)
			}
		case IADD:
			if got-b != a {
				t.Fatalf("iadd %#x+%#x = %#x does not invert", a, b, got)
			}
		case XOR:
			if got^b != a {
				t.Fatalf("xor %#x^%#x = %#x does not invert", a, b, got)
			}
		case SETP, LDG, STG, LDS, STS, LDP, BRA, BAR, EXIT:
			// Not Eval's job: the warp executor handles these. Eval must
			// still be total over them.
			if got != 0 {
				t.Fatalf("%s is not an ALU op but Eval returned %#x", op, got)
			}
		default:
			if !op.Valid() && got != 0 {
				t.Fatalf("invalid opcode %d returned %#x, want 0", opb, got)
			}
		}

		// The comparator must be total over the CmpOp byte space too,
		// and the signed orderings must complement each other exactly
		// (the float ones need not: NaN fails both CmpFLT and CmpFGE).
		cmp := CmpOp(opb)
		v := EvalCmp(cmp, a, b)
		if again := EvalCmp(cmp, a, b); again != v {
			t.Fatalf("EvalCmp(%s) is non-deterministic", cmp)
		}
		if !cmp.Valid() && v {
			t.Fatalf("invalid comparison %d returned true", opb)
		}
		if EvalCmp(CmpLT, a, b) == EvalCmp(CmpGE, a, b) {
			t.Fatalf("lt and ge agree on (%#x, %#x)", a, b)
		}
		if EvalCmp(CmpLTU, a, b) == EvalCmp(CmpGEU, a, b) {
			t.Fatalf("ltu and geu agree on (%#x, %#x)", a, b)
		}
		if EvalCmp(CmpEQ, a, b) == EvalCmp(CmpNE, a, b) {
			t.Fatalf("eq and ne agree on (%#x, %#x)", a, b)
		}
	})
}

// FuzzEvalLanes checks the whole-warp evaluators against the scalar
// ones lane by lane, over the full opcode and CmpOp byte space. Lane 0
// carries the fuzzed operands; the other lanes are derived from seed,
// with some lanes repeating lane 0's operands or swapping them. The
// destination also runs aliased to the a column, as the warp executor
// uses it when an instruction overwrites one of its sources.
func FuzzEvalLanes(f *testing.F) {
	f.Add(uint8(IADD), uint32(1), uint32(2), uint32(3), uint64(0))
	f.Add(uint8(FFMA), f32bits(1.5), f32bits(-2), f32bits(0.25), uint64(7))
	f.Add(uint8(SRA), uint32(0x80000000), uint32(33), uint32(0), uint64(1))
	f.Add(uint8(SELP), uint32(7), uint32(9), uint32(1), uint64(2))
	f.Add(uint8(CmpFLT), f32bits(float32(math.NaN())), f32bits(1), uint32(0), uint64(3))
	f.Add(uint8(numOpcodes), uint32(0xffffffff), uint32(0), uint32(0), uint64(4))
	f.Add(uint8(255), uint32(1), uint32(2), uint32(3), uint64(5))
	f.Fuzz(func(t *testing.T, opb uint8, a0, b0, c0 uint32, seed uint64) {
		var a, b, c [Lanes]uint32
		x := seed
		next := func() uint32 { // splitmix64
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return uint32(z ^ (z >> 31))
		}
		for i := range a {
			switch i % 4 {
			case 0:
				a[i], b[i], c[i] = a0, b0, c0
			case 1:
				a[i], b[i], c[i] = b0, a0, next()&1
			default:
				a[i], b[i], c[i] = next(), next(), next()
			}
		}

		op := Opcode(opb)
		var out [Lanes]uint32
		EvalLanes(op, &out, &a, &b, &c)
		aliased := a
		EvalLanes(op, &aliased, &aliased, &b, &c)
		for i := range out {
			want := Eval(op, a[i], b[i], c[i])
			if out[i] != want {
				t.Fatalf("EvalLanes(%s) lane %d (%#x,%#x,%#x) = %#x, Eval = %#x", op, i, a[i], b[i], c[i], out[i], want)
			}
			if aliased[i] != want {
				t.Fatalf("EvalLanes(%s) with out aliasing a: lane %d = %#x, Eval = %#x", op, i, aliased[i], want)
			}
		}

		cmp := CmpOp(opb)
		set := EvalCmpLanes(cmp, &a, &b)
		for i := range a {
			if got, want := set&(1<<i) != 0, EvalCmp(cmp, a[i], b[i]); got != want {
				t.Fatalf("EvalCmpLanes(%s) lane %d (%#x,%#x) = %v, EvalCmp = %v", cmp, i, a[i], b[i], got, want)
			}
		}
	})
}
