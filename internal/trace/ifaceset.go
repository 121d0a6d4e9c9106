package trace

import (
	"iter"
	"unsafe"
)

// InterfaceSetOf is a map-based set of interface addresses. It remains
// the currency of the analysis layer (metrics.Jaccard, per-distance
// interface sets) where map ergonomics matter and sizes are small; the
// store itself tracks discovered interfaces in the open-addressed
// InterfaceTableOf below, which costs one word per entry and allocates
// nothing on the hit path.
type InterfaceSetOf[A comparable] map[A]struct{}

// Add inserts addr and reports whether it was newly added.
func (s InterfaceSetOf[A]) Add(addr A) bool {
	if _, ok := s[addr]; ok {
		return false
	}
	s[addr] = struct{}{}
	return true
}

// Has reports membership.
func (s InterfaceSetOf[A]) Has(addr A) bool {
	_, ok := s[addr]
	return ok
}

// Len returns the set cardinality.
func (s InterfaceSetOf[A]) Len() int { return len(s) }

// memHashOf returns a hash over the memory representation of A, the
// default when the caller injects none. Valid only for address-like
// types whose bytes determine equality — uint32 and fixed-size byte
// arrays, the only instantiations in this codebase; a type containing
// pointers or strings must supply its own hash.
func memHashOf[A comparable]() func(A) uint64 {
	return func(a A) uint64 {
		b := unsafe.Slice((*byte)(unsafe.Pointer(&a)), unsafe.Sizeof(a))
		h := uint64(0xcbf29ce484222325) // FNV-1a
		for _, c := range b {
			h ^= uint64(c)
			h *= 0x100000001b3
		}
		// FNV mixes low bits weakly for short keys; finish with an
		// avalanche so the table's mask sees every input bit.
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return h
	}
}

// InterfaceTableOf is an open-addressed hash set of interface addresses
// with linear probing and power-of-two growth: one A per slot, no
// per-entry allocation, and a zero-allocation hit path (the common case
// on the receive path — a core router answers for thousands of
// destinations but is inserted once). The zero address is kept out of
// band (hasZero) so the zero value of A can mark empty slots.
//
// It is not safe for concurrent use: the store that owns one is written
// by a single goroutine and read after the scan, and the engine's stop
// set (the other user) guards each of its tables with a shard lock.
type InterfaceTableOf[A comparable] struct {
	keys    []A // len is a power of two; zero value = empty slot
	n       int // occupied slots (excluding the out-of-band zero)
	hasZero bool
	hash    func(A) uint64
}

// NewInterfaceTableOf returns a table hashing with hash, pre-sized to
// hold hint entries without growing (0 = allocate on first insert).
func NewInterfaceTableOf[A comparable](hash func(A) uint64, hint int) InterfaceTableOf[A] {
	t := InterfaceTableOf[A]{hash: hash}
	if hint > 0 {
		t.keys = make([]A, TableSizeFor(hint))
	}
	return t
}

// TableSizeFor returns the power-of-two table length that holds n
// entries under the 3/4 load-factor bound.
func TableSizeFor(n int) int {
	size := 16
	for size*3 < n*4 {
		size <<= 1
	}
	return size
}

// Add inserts addr and reports whether it was newly added.
func (t *InterfaceTableOf[A]) Add(addr A) bool { return t.AddHashed(addr, t.hash(addr)) }

// AddHashed is Add for a caller that already computed h = hash(addr) (the
// stop set picks its shard from the same hash).
func (t *InterfaceTableOf[A]) AddHashed(addr A, h uint64) bool {
	var zero A
	if addr == zero {
		if t.hasZero {
			return false
		}
		t.hasZero = true
		return true
	}
	if len(t.keys) == 0 || (t.n+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := h & mask
	for {
		k := t.keys[i]
		if k == addr {
			return false
		}
		if k == zero {
			t.keys[i] = addr
			t.n++
			return true
		}
		i = (i + 1) & mask
	}
}

// Has reports membership.
func (t *InterfaceTableOf[A]) Has(addr A) bool { return t.HasHashed(addr, t.hash(addr)) }

// HasHashed is Has given h = hash(addr) (see AddHashed).
func (t *InterfaceTableOf[A]) HasHashed(addr A, h uint64) bool {
	var zero A
	if addr == zero {
		return t.hasZero
	}
	if len(t.keys) == 0 {
		return false
	}
	mask := uint64(len(t.keys) - 1)
	i := h & mask
	for {
		k := t.keys[i]
		if k == addr {
			return true
		}
		if k == zero {
			return false
		}
		i = (i + 1) & mask
	}
}

// Len returns the set cardinality.
func (t *InterfaceTableOf[A]) Len() int {
	n := t.n
	if t.hasZero {
		n++
	}
	return n
}

// All returns an iterator over every stored address, in table order
// (unspecified). Usable as `for a := range t.All()`.
func (t *InterfaceTableOf[A]) All() iter.Seq[A] {
	return func(yield func(A) bool) {
		var zero A
		if t.hasZero && !yield(zero) {
			return
		}
		for _, k := range t.keys {
			if k != zero && !yield(k) {
				return
			}
		}
	}
}

// ForEach calls fn for every stored address.
func (t *InterfaceTableOf[A]) ForEach(fn func(A)) {
	for a := range t.All() {
		fn(a)
	}
}

// Reserve grows the table to hold n entries without further rehashing.
func (t *InterfaceTableOf[A]) Reserve(n int) {
	if size := TableSizeFor(n); size > len(t.keys) {
		t.rehash(size)
	}
}

// MemoryBytes returns the table's backing-array footprint.
func (t *InterfaceTableOf[A]) MemoryBytes() uint64 {
	var a A
	return uint64(len(t.keys)) * uint64(unsafe.Sizeof(a))
}

func (t *InterfaceTableOf[A]) grow() {
	size := 2 * len(t.keys)
	if size == 0 {
		size = 16
	}
	t.rehash(size)
}

func (t *InterfaceTableOf[A]) rehash(size int) {
	old := t.keys
	t.keys = make([]A, size)
	var zero A
	mask := uint64(size - 1)
	for _, k := range old {
		if k == zero {
			continue
		}
		i := t.hash(k) & mask
		for t.keys[i] != zero {
			i = (i + 1) & mask
		}
		t.keys[i] = k
	}
}
