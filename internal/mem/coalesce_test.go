package mem

import (
	"math/rand"
	"testing"

	"gpushare/internal/kernel"
)

// refBankConflictDegree is the map-based bank check BankConflictDegree
// replaced, kept as its oracle: per bank, the list of distinct words.
func refBankConflictDegree(addrs *[kernel.WarpSize]uint32, active uint32, banks int) int {
	if active == 0 {
		return 1
	}
	words := make(map[int][]uint32, banks)
	deg := 1
	for lane := 0; lane < kernel.WarpSize; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		word := addrs[lane] >> 2
		b := int(word) % banks
		dup := false
		for _, w := range words[b] {
			if w == word {
				dup = true
				break
			}
		}
		if !dup {
			words[b] = append(words[b], word)
			if len(words[b]) > deg {
				deg = len(words[b])
			}
		}
	}
	return deg
}

// TestBankConflictDegreeMatchesMap compares the fixed-array bank check
// with the map-based one on random warps: random, empty and full
// masks, bank counts 1, 7, 32, 64 and 100 (more banks than the
// bank-seen filter's 64 bits, so banks alias in it), and addresses drawn from a small
// pool so lanes often share a word (broadcast) or a bank, including
// byte addresses within one word.
func TestBankConflictDegreeMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20000; iter++ {
		var addrs [kernel.WarpSize]uint32
		pool := 1 + rng.Intn(96) // distinct words to draw from
		stride := uint32(1 + rng.Intn(40))
		for lane := range addrs {
			switch rng.Intn(8) {
			case 0:
				addrs[lane] = rng.Uint32()
			default:
				addrs[lane] = uint32(rng.Intn(pool))*stride*4 + uint32(rng.Intn(4))
			}
		}
		var active uint32
		switch iter % 4 {
		case 0:
			active = ^uint32(0)
		case 1:
			active = 0
			if rng.Intn(2) == 0 {
				active = 1 << rng.Intn(kernel.WarpSize)
			}
		default:
			active = rng.Uint32()
		}
		for _, banks := range []int{1, 7, 32, 64, 100} {
			got := BankConflictDegree(&addrs, active, banks)
			if want := refBankConflictDegree(&addrs, active, banks); got != want {
				t.Fatalf("iter %d banks %d active %#x addrs %v: degree %d, map version %d",
					iter, banks, active, addrs, got, want)
			}
		}
	}
}

// BenchmarkBankConflictDegree measures the bank check on a full warp
// with a two-way conflict on half the banks (a two-word stride over 32
// banks). It must not allocate.
func BenchmarkBankConflictDegree(b *testing.B) {
	var addrs [kernel.WarpSize]uint32
	for lane := range addrs {
		addrs[lane] = uint32(lane) * 2 * 4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if BankConflictDegree(&addrs, ^uint32(0), 32) != 2 {
			b.Fatal("want degree 2")
		}
	}
}
