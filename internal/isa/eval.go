package isa

import "math"

func f32bits(v float32) uint32     { return math.Float32bits(v) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }

// ffma is FFMA with the product rounded to float32 before the add. The
// explicit conversion forbids the compiler from fusing a*b+c into one
// FMA instruction (which it does on arm64, ppc64 and s390x), so the
// result bits are the same on every host.
func ffma(a, b, c uint32) uint32 {
	return f32bits(float32(f32frombits(a)*f32frombits(b)) + f32frombits(c))
}

// Eval computes the scalar result of an ALU/SFU opcode for one lane.
// a, b, c are the source operand values; memory and control opcodes must
// not be passed to Eval (they are handled by the warp executor).
func Eval(op Opcode, a, b, c uint32) uint32 {
	switch op {
	case NOP:
		return 0
	case MOV:
		return a
	case IADD:
		return a + b
	case ISUB:
		return a - b
	case IMUL:
		return uint32(int32(a) * int32(b))
	case IMAD:
		return uint32(int32(a)*int32(b) + int32(c))
	case IMIN:
		if int32(a) < int32(b) {
			return a
		}
		return b
	case IMAX:
		if int32(a) > int32(b) {
			return a
		}
		return b
	case AND:
		return a & b
	case OR:
		return a | b
	case XOR:
		return a ^ b
	case SHL:
		return a << (b & 31)
	case SHR:
		return a >> (b & 31)
	case SRA:
		return uint32(int32(a) >> (b & 31))
	case FADD:
		return f32bits(f32frombits(a) + f32frombits(b))
	case FSUB:
		return f32bits(f32frombits(a) - f32frombits(b))
	case FMUL:
		return f32bits(f32frombits(a) * f32frombits(b))
	case FFMA:
		return ffma(a, b, c)
	case FMIN:
		return f32bits(float32(math.Min(float64(f32frombits(a)), float64(f32frombits(b)))))
	case FMAX:
		return f32bits(float32(math.Max(float64(f32frombits(a)), float64(f32frombits(b)))))
	case FRCP:
		return f32bits(1 / f32frombits(a))
	case FSQRT:
		return f32bits(float32(math.Sqrt(float64(f32frombits(a)))))
	case FEXP:
		return f32bits(float32(math.Exp2(float64(f32frombits(a)))))
	case FLOG:
		return f32bits(float32(math.Log2(float64(f32frombits(a)))))
	case FSIN:
		return f32bits(float32(math.Sin(float64(f32frombits(a)))))
	case I2F:
		return f32bits(float32(int32(a)))
	case F2I:
		return uint32(int32(f32frombits(a)))
	case SELP:
		// The warp executor resolves the predicate and passes it in c.
		if c != 0 {
			return a
		}
		return b
	}
	return 0
}

// EvalCmp computes a SETP comparison for one lane.
func EvalCmp(cmp CmpOp, a, b uint32) bool {
	switch cmp {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return int32(a) < int32(b)
	case CmpLE:
		return int32(a) <= int32(b)
	case CmpGT:
		return int32(a) > int32(b)
	case CmpGE:
		return int32(a) >= int32(b)
	case CmpLTU:
		return a < b
	case CmpGEU:
		return a >= b
	case CmpFLT:
		return f32frombits(a) < f32frombits(b)
	case CmpFGE:
		return f32frombits(a) >= f32frombits(b)
	}
	return false
}

// Lanes is the number of values in a warp column: one per thread of a
// warp (kernel.WarpSize).
const Lanes = 32

// EvalLanes computes op for all 32 lanes of a warp at once: out[i] =
// Eval(op, a[i], b[i], c[i]). The opcode switch runs once per warp
// instead of once per lane. Only opcodes the workload kernels emit get
// a dedicated loop; the rest fall back to Eval lane by lane. Lane i
// reads a[i], b[i] and c[i] before it writes out[i], so out may alias a
// source column.
func EvalLanes(op Opcode, out, a, b, c *[Lanes]uint32) {
	switch op {
	case MOV:
		*out = *a
	case IADD:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case ISUB:
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case IMUL:
		for i := range out {
			out[i] = uint32(int32(a[i]) * int32(b[i]))
		}
	case IMAD:
		for i := range out {
			out[i] = uint32(int32(a[i])*int32(b[i]) + int32(c[i]))
		}
	case IMIN:
		for i := range out {
			out[i] = uint32(min(int32(a[i]), int32(b[i])))
		}
	case IMAX:
		for i := range out {
			out[i] = uint32(max(int32(a[i]), int32(b[i])))
		}
	case AND:
		for i := range out {
			out[i] = a[i] & b[i]
		}
	case XOR:
		for i := range out {
			out[i] = a[i] ^ b[i]
		}
	case SHL:
		for i := range out {
			out[i] = a[i] << (b[i] & 31)
		}
	case SHR:
		for i := range out {
			out[i] = a[i] >> (b[i] & 31)
		}
	case FADD:
		for i := range out {
			out[i] = f32bits(f32frombits(a[i]) + f32frombits(b[i]))
		}
	case FSUB:
		for i := range out {
			out[i] = f32bits(f32frombits(a[i]) - f32frombits(b[i]))
		}
	case FMUL:
		for i := range out {
			out[i] = f32bits(f32frombits(a[i]) * f32frombits(b[i]))
		}
	case FFMA:
		for i := range out {
			out[i] = ffma(a[i], b[i], c[i])
		}
	case SELP:
		for i := range out {
			if c[i] != 0 {
				out[i] = a[i]
			} else {
				out[i] = b[i]
			}
		}
	default:
		for i := range out {
			out[i] = Eval(op, a[i], b[i], c[i])
		}
	}
}

// EvalCmpLanes computes a SETP comparison for all 32 lanes of a warp
// and returns the lanes where it holds as a bit mask (bit i = lane i).
// Only comparisons the workload kernels emit get a dedicated loop; the
// rest fall back to EvalCmp.
func EvalCmpLanes(cmp CmpOp, a, b *[Lanes]uint32) uint32 {
	var set uint32
	switch cmp {
	case CmpEQ:
		for i := range a {
			set |= b2u(a[i] == b[i]) << i
		}
	case CmpLT:
		for i := range a {
			set |= b2u(int32(a[i]) < int32(b[i])) << i
		}
	case CmpGE:
		for i := range a {
			set |= b2u(int32(a[i]) >= int32(b[i])) << i
		}
	case CmpLTU:
		for i := range a {
			set |= b2u(a[i] < b[i]) << i
		}
	case CmpGEU:
		for i := range a {
			set |= b2u(a[i] >= b[i]) << i
		}
	default:
		for i := range a {
			set |= b2u(EvalCmp(cmp, a[i], b[i])) << i
		}
	}
	return set
}

// b2u converts a comparison outcome to a 0/1 lane bit.
func b2u(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}
