// Package intervalmap provides an ordered map from half-open address
// intervals [lo, hi) to values. The Privateer pointer-to-object profiler
// uses it to resolve any dynamic pointer to the name of the memory object
// occupying that address range (section 4.1 of the paper, after Wu et al.).
package intervalmap

import "sort"

// Map associates non-overlapping half-open intervals with values of type V.
// The zero value is an empty map. Not safe for concurrent use.
type Map[V any] struct {
	ivs []interval[V]
	// last is the index of Find's last hit.
	last int
}

type interval[V any] struct {
	lo, hi uint64
	val    V
}

// Len returns the number of intervals in the map.
func (m *Map[V]) Len() int { return len(m.ivs) }

// search returns the index of the first interval with lo > addr.
func (m *Map[V]) search(addr uint64) int {
	return sort.Search(len(m.ivs), func(i int) bool { return m.ivs[i].lo > addr })
}

// Insert adds the interval [lo, hi) with value v, replacing any existing
// intervals it overlaps. Inserting an empty interval is a no-op.
func (m *Map[V]) Insert(lo, hi uint64, v V) {
	if lo >= hi {
		return
	}
	// Find the overlap span [first, last) of existing intervals.
	first := sort.Search(len(m.ivs), func(i int) bool { return m.ivs[i].hi > lo })
	last := sort.Search(len(m.ivs), func(i int) bool { return m.ivs[i].lo >= hi })
	if first == last {
		// Nothing overlaps (an allocator handing out fresh addresses): shift
		// the tail up in place instead of rebuilding it.
		m.ivs = append(m.ivs, interval[V]{})
		copy(m.ivs[first+1:], m.ivs[first:])
		m.ivs[first] = interval[V]{lo, hi, v}
		return
	}
	repl := []interval[V]{{lo, hi, v}}
	// Preserve the non-overlapping remnants of boundary intervals.
	if first < len(m.ivs) && m.ivs[first].lo < lo {
		head := m.ivs[first]
		head.hi = lo
		repl = append([]interval[V]{head}, repl...)
	}
	if last > 0 && last-1 < len(m.ivs) && m.ivs[last-1].hi > hi {
		tail := m.ivs[last-1]
		tail.lo = hi
		repl = append(repl, tail)
	}
	m.ivs = append(m.ivs[:first], append(repl, m.ivs[last:]...)...)
}

// Remove deletes any interval containing addr and returns its value.
func (m *Map[V]) Remove(addr uint64) (V, bool) {
	var zero V
	i := m.search(addr)
	if i == 0 {
		return zero, false
	}
	i--
	if addr >= m.ivs[i].hi {
		return zero, false
	}
	v := m.ivs[i].val
	m.ivs = append(m.ivs[:i], m.ivs[i+1:]...)
	return v, true
}

// Find returns the interval containing addr and its value. The last hit is
// tried before the binary search; intervals never overlap, so whatever
// interval that slot holds now is the answer if it contains addr, and an
// Insert or Remove in between cannot make it resolve to a dead interval.
func (m *Map[V]) Find(addr uint64) (lo, hi uint64, v V, ok bool) {
	i := m.last
	if i >= len(m.ivs) || addr < m.ivs[i].lo || addr >= m.ivs[i].hi {
		i = m.search(addr) - 1
		if i < 0 || addr >= m.ivs[i].hi {
			return 0, 0, v, false
		}
		m.last = i
	}
	iv := &m.ivs[i]
	return iv.lo, iv.hi, iv.val, true
}

// Lookup returns the value of the interval containing addr.
func (m *Map[V]) Lookup(addr uint64) (V, bool) {
	_, _, v, ok := m.Find(addr)
	return v, ok
}

// Each calls visit for every interval in ascending address order; returning
// false stops the walk.
func (m *Map[V]) Each(visit func(lo, hi uint64, v V) bool) {
	for _, iv := range m.ivs {
		if !visit(iv.lo, iv.hi, iv.val) {
			return
		}
	}
}
