package mem

import "math/bits"

// CoalesceSectorsInto reduces the per-thread addresses of one warp memory
// instruction to the set of unique memory sectors touched, which is the unit
// of L1/L2/DRAM traffic. addrs[i] is the address of lane i; only lanes whose
// bit is set in mask participate; size is the per-thread access width in
// bytes; sectorSize is a power of two. The result is sorted ascending and
// deduplicated — fully coalesced 4-byte accesses from 32 lanes touch 4
// sectors of 32 bytes, a strided or random pattern up to 32 (or 64 for
// 8-byte accesses spanning sectors) — and that order fixes the sequence in
// which the data path visits L1, L2 and DRAM.
//
// The result is appended to dst[:0] and shares its array, so a caller that
// owns a reusable scratch buffer pays no allocation once the buffer has
// grown to the warp's sector footprint. The SM issue path passes a per-SM
// scratch buffer here; the returned slice must therefore be fully consumed
// before the next memory instruction issues on that SM, which the memory
// data path guarantees (it only iterates, never retains).
//
// Every sector is appended in lane order unless it repeats the last one;
// only if one fell below its predecessor (a scattered or descending warp)
// is the list sorted and deduplicated, once, at the end.
func CoalesceSectorsInto(dst []uint64, addrs *[32]uint64, mask uint32, size int, sectorSize uint64) []uint64 {
	sectors := dst[:0]
	shift := uint(bits.TrailingZeros64(sectorSize)) & 63 // no check for shifts past 63
	end := uint64(size) - 1
	var prev, broke uint64
	for ; mask != 0; mask &= mask - 1 {
		a := addrs[bits.TrailingZeros32(mask)&31]
		// Sector numbers, not addresses: the last sector of the address
		// space has no successor to step to.
		for n, last := a>>shift, (a+end)>>shift; n <= last; n++ {
			s := n << shift
			if s != prev || len(sectors) == 0 {
				_, below := bits.Sub64(s, prev, 0)
				broke |= below
				sectors = append(sectors, s)
				prev = s
			}
		}
	}
	if broke != 0 {
		sectors = sortUnique(sectors)
	}
	return sectors
}

// sortUnique sorts xs ascending by insertion and drops duplicates, in place
// (on a warp's few dozen entries, a sorting network was slower).
func sortUnique(xs []uint64) []uint64 {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i
		for ; j > 0 && xs[j-1] > v; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = v
	}
	k, last := 1, xs[0]
	for _, v := range xs[1:] {
		if v != last {
			xs[k] = v
			k++
			last = v
		}
	}
	return xs[:k]
}

// SharedBanks is the number of shared-memory banks on every modern NVIDIA
// architecture.
const SharedBanks = 32

// BankConflictDegree returns the number of shared-memory cycles one warp
// access needs: the maximum, over banks, of distinct 4-byte words requested
// in that bank. Lanes reading the same word broadcast and do not conflict.
// The result is at least 1 when any lane is active, so it can be used
// directly as the replay/serialisation factor.
func BankConflictDegree(addrs *[32]uint64, mask uint32, size int) int {
	// Distinct words seen so far, chained per bank (head/next hold 1-based
	// indices into words, 0 ending a chain): 32 lanes of two words at most.
	var (
		words [2 * 32]uint64
		next  [2 * 32]uint8
		head  [SharedBanks]uint8
		count [SharedBanks]uint8
	)
	n, degree := 0, 0
	// An 8-byte access occupies two consecutive words.
	nwords := (size + 3) / 4
	for lane := 0; lane < 32; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		for w := 0; w < nwords; w++ {
			word := addrs[lane]/4 + uint64(w)
			bank := word % SharedBanks
			i := head[bank]
			for i != 0 && words[i-1] != word {
				i = next[i-1]
			}
			if i != 0 {
				continue // same word: broadcast
			}
			words[n], next[n] = word, head[bank]
			n++
			head[bank] = uint8(n)
			count[bank]++
			degree = max(degree, int(count[bank]))
		}
	}
	if degree == 0 && mask != 0 {
		degree = 1
	}
	return degree
}

// MaxContention returns the largest number of active lanes targeting one
// address — the strict serialisation depth of a warp atomic, since the L2
// ROP unit performs same-address read-modify-writes one at a time.
func MaxContention(addrs *[32]uint64, mask uint32) int {
	var (
		seen  [32]uint64
		count [32]int
	)
	n, best := 0, 0
	for lane := 0; lane < 32; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		i := 0
		for i < n && seen[i] != addrs[lane] {
			i++
		}
		if i == n {
			seen[n] = addrs[lane]
			n++
		}
		count[i]++
		best = max(best, count[i])
	}
	return best
}
