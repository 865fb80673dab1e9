// Names kept only because bench/ (its own module, frozen by BENCHMARK.json)
// compiles against them; nothing else may call them. The PR that next edits
// bench/ deletes this file and the tests of these names.

package mem

// Clone returns an independent storage with the same capacity, watermark and
// allocated contents. Bytes beyond the watermark are not copied (they are
// unreachable until re-allocated), so cloning costs O(allocated), not
// O(capacity).
func (s *Storage) Clone() *Storage {
	c := &Storage{data: make([]byte, len(s.data)), limit: s.limit, next: s.next, base: s.base, high: s.next}
	copy(c.data[s.base:s.next], s.data[s.base:s.next])
	return c
}

// Clone returns an independent copy of the bank.
func (c *ConstantBank) Clone() *ConstantBank {
	out := &ConstantBank{data: make([]byte, len(c.data))}
	copy(out.data, c.data)
	return out
}
