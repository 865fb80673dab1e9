package mem

import (
	"reflect"
	"testing"
)

func TestStorageCloneIndependence(t *testing.T) {
	s := NewStorage(1 << 16)
	a := s.Alloc(64)
	s.WriteU32Slice(a, []uint32{1, 2, 3, 4})

	c := s.Clone()
	if c.Size() != s.Size() || c.Mark() != s.Mark() {
		t.Fatalf("clone shape (%d,%d) != original (%d,%d)", c.Size(), c.Mark(), s.Size(), s.Mark())
	}
	if got := c.ReadU32Slice(a, 4); !reflect.DeepEqual(got, []uint32{1, 2, 3, 4}) {
		t.Fatalf("clone contents = %v", got)
	}
	c.WriteU32Slice(a, []uint32{9, 9, 9, 9})
	if got := s.ReadU32Slice(a, 4); !reflect.DeepEqual(got, []uint32{1, 2, 3, 4}) {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestHashAllocatedSensitivity(t *testing.T) {
	s := NewStorage(1 << 16)
	a := s.Alloc(64)
	s.WriteU32Slice(a, []uint32{1, 2, 3, 4})
	h0 := s.HashAllocated()

	if s.Clone().HashAllocated() != h0 {
		t.Fatal("clone hashes differently from its source")
	}
	s.WriteU32Slice(a, []uint32{1, 2, 3, 5})
	if s.HashAllocated() == h0 {
		t.Fatal("content change did not change the hash")
	}
	s.WriteU32Slice(a, []uint32{1, 2, 3, 4})
	if s.HashAllocated() != h0 {
		t.Fatal("hash is not a pure function of allocated bytes")
	}
	s.Alloc(8)
	if s.HashAllocated() == h0 {
		t.Fatal("watermark move did not change the hash")
	}
}

func TestConstantBankCloneAndHash(t *testing.T) {
	b := NewConstantBank(1 << 12)
	b.Write(0x200, 0xABCD, 8)
	h0 := b.Hash()

	c := b.Clone()
	if c.Hash() != h0 {
		t.Fatal("constant clone hashes differently")
	}
	c.Write(0x200, 0x1234, 8)
	if b.Read(0x200, 8) != 0xABCD {
		t.Fatal("mutating constant clone changed the original")
	}
	if c.Hash() == h0 {
		t.Fatal("constant rewrite did not change the hash")
	}
}
