// Package dfa provides the generic data-flow machinery shared by the
// classic analyses (liveness, reaching definitions) and, in spirit, by
// the thermal analysis: a dense bit set and a worklist fixpoint solver
// parameterized over the fact type.
//
// The paper (§3) frames its contribution against exactly this
// machinery: "liveness analysis [needs] a single bit of information per
// variable", while the proposed thermal analysis "must propagate a
// floorplan-aware estimate of the thermal state", i.e. a vector of
// temperatures. Both fact shapes run on the same solver.
package dfa

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitSet is a fixed-capacity dense bit set. The zero value is an empty
// set of capacity 0; use NewBitSet for a working set.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns an empty set able to hold bits [0, n).
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the set (number of addressable bits).
func (s *BitSet) Len() int { return s.n }

func (s *BitSet) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("dfa: bit %d out of range [0,%d)", i, s.n))
	}
}

// Set adds bit i to the set.
func (s *BitSet) Set(i int) {
	s.check(i)
	s.words[i/64] |= 1 << (uint(i) % 64)
}

// Clear removes bit i from the set.
func (s *BitSet) Clear(i int) {
	s.check(i)
	s.words[i/64] &^= 1 << (uint(i) % 64)
}

// Get reports whether bit i is in the set.
func (s *BitSet) Get(i int) bool {
	s.check(i)
	return s.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Reset removes every bit.
func (s *BitSet) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Copy returns an independent copy of the set.
func (s *BitSet) Copy() *BitSet {
	c := &BitSet{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites the set with the contents of src (same capacity).
func (s *BitSet) CopyFrom(src *BitSet) {
	if s.n != src.n {
		panic("dfa: CopyFrom capacity mismatch")
	}
	copy(s.words, src.words)
}

// UnionWith adds every bit of t to s and reports whether s changed.
func (s *BitSet) UnionWith(t *BitSet) bool {
	if s.n != t.n {
		panic("dfa: UnionWith capacity mismatch")
	}
	changed := false
	for i, w := range t.words {
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// IntersectWith keeps only bits present in both sets and reports
// whether s changed.
func (s *BitSet) IntersectWith(t *BitSet) bool {
	if s.n != t.n {
		panic("dfa: IntersectWith capacity mismatch")
	}
	changed := false
	for i, w := range t.words {
		old := s.words[i]
		nw := old & w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// DiffWith removes every bit of t from s and reports whether s changed.
func (s *BitSet) DiffWith(t *BitSet) bool {
	if s.n != t.n {
		panic("dfa: DiffWith capacity mismatch")
	}
	changed := false
	for i, w := range t.words {
		old := s.words[i]
		nw := old &^ w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Equal reports whether two sets hold exactly the same bits.
func (s *BitSet) Equal(t *BitSet) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Count returns the number of bits in the set.
func (s *BitSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no bits.
func (s *BitSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every bit in the set, in ascending order.
func (s *BitSet) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Slice returns the members in ascending order.
func (s *BitSet) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as "{1, 5, 9}".
func (s *BitSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", i)
		first = false
	})
	b.WriteByte('}')
	return b.String()
}
