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
	// last is Find's hint: the slot of its last hit.
	last int
}

type interval[V any] struct {
	lo, hi uint64
	val    V
}

// Len returns the number of intervals in the map.
func (m *Map[V]) Len() int { return len(m.ivs) }

// search returns the index of the first interval with lo > addr. It is
// sort.Search without the closure call per probe.
func (m *Map[V]) search(addr uint64) int {
	i, j := 0, len(m.ivs)
	for i < j {
		if h := int(uint(i+j) >> 1); m.ivs[h].lo > addr {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
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

// Find returns the interval containing addr and its value, trying the slot
// of its own last hit before the binary search.
func (m *Map[V]) Find(addr uint64) (lo, hi uint64, v V, ok bool) {
	return m.FindHint(&m.last, addr)
}

// FindHint is Find with a memo the caller keeps: the slot *hint is tried
// before the binary search, and *hint is set to the slot that hits. Any
// hint is sound, stale or out of range: intervals never overlap, so
// whatever interval the slot holds now is the answer if it contains addr,
// and an Insert or Remove in between cannot make it resolve to a dead
// interval. One such Insert or Remove below the hinted interval shifts it
// by one slot, so the hint's neighbours are tried next. A caller that keeps
// one hint per access site stops two sites that alternate between
// intervals from evicting each other's memo.
func (m *Map[V]) FindHint(hint *int, addr uint64) (lo, hi uint64, v V, ok bool) {
	i := *hint
	switch {
	case m.holds(i, addr):
	case m.holds(i+1, addr):
		i++
	case m.holds(i-1, addr):
		i--
	default:
		if i = m.search(addr) - 1; i < 0 || addr >= m.ivs[i].hi {
			return 0, 0, v, false
		}
	}
	*hint = i
	iv := &m.ivs[i]
	return iv.lo, iv.hi, iv.val, true
}

// holds reports whether slot i exists and its interval contains addr.
func (m *Map[V]) holds(i int, addr uint64) bool {
	return uint(i) < uint(len(m.ivs)) && addr-m.ivs[i].lo < m.ivs[i].hi-m.ivs[i].lo
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
