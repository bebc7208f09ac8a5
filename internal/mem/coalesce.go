package mem

import (
	"math"
	"math/bits"

	"gpushare/internal/kernel"
)

func f32bits(v float32) uint32     { return math.Float32bits(v) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }

// F32Bits exposes the float32 bit conversion used across the simulator.
func F32Bits(v float32) uint32 { return math.Float32bits(v) }

// F32FromBits converts an IEEE-754 bit pattern back to float32.
func F32FromBits(b uint32) float32 { return math.Float32frombits(b) }

// Coalesce reduces the per-lane byte addresses of one warp memory
// instruction to the set of distinct cache-line addresses it touches,
// mirroring the memory-access coalescing stage of an NVIDIA LSU.
// lineSz must be a power of two. The result is appended to buf.
func Coalesce(addrs *[kernel.WarpSize]uint32, active uint32, lineSz int, buf []uint32) []uint32 {
	mask := ^uint32(lineSz - 1)
	for lane := 0; lane < kernel.WarpSize; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		line := addrs[lane] & mask
		dup := false
		for _, l := range buf {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, line)
		}
	}
	return buf
}

// BankConflictDegree returns the maximum number of distinct scratchpad
// words mapping to the same bank across the active lanes — the number of
// serialized scratchpad cycles the access costs. Lanes reading the same
// word broadcast and do not conflict. banks must be positive.
//
// A warp touches at most 32 distinct words, so they and their banks live
// in fixed stack arrays and the check allocates nothing. A word whose
// bank (mod 64) has not been seen yet is recorded without a scan, which
// makes the common conflict-free access linear.
func BankConflictDegree(addrs *[kernel.WarpSize]uint32, active uint32, banks int) int {
	var words [kernel.WarpSize]uint32 // distinct words seen so far
	var bankOf [kernel.WarpSize]int   // bankOf[i] is the bank of words[i]
	var seen uint64                   // bit b%64 is set once a word on bank b is recorded
	n, deg := 0, 1
	for m := active; m != 0; m &= m - 1 {
		word := addrs[bits.TrailingZeros32(m)] >> 2
		b := int(word) % banks
		if bit := uint64(1) << (b & 63); seen&bit == 0 {
			seen |= bit
			words[n], bankOf[n] = word, b
			n++
			continue
		}
		same, dup := 1, false // same counts the bank's distinct words, this one included
		for i := 0; i < n; i++ {
			if bankOf[i] != b {
				continue
			}
			if words[i] == word {
				dup = true
				break
			}
			same++
		}
		if dup {
			continue
		}
		words[n], bankOf[n] = word, b
		n++
		deg = max(deg, same)
	}
	return deg
}
