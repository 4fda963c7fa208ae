package intervalmap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertLookup(t *testing.T) {
	var m Map[string]
	m.Insert(100, 200, "a")
	m.Insert(300, 400, "b")
	cases := []struct {
		addr uint64
		want string
		ok   bool
	}{
		{99, "", false}, {100, "a", true}, {150, "a", true}, {199, "a", true},
		{200, "", false}, {250, "", false}, {300, "b", true}, {399, "b", true},
		{400, "", false},
	}
	for _, c := range cases {
		got, ok := m.Lookup(c.addr)
		if ok != c.ok || got != c.want {
			t.Errorf("Lookup(%d) = %q,%v; want %q,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
}

func TestInsertReplacesOverlap(t *testing.T) {
	var m Map[string]
	m.Insert(100, 200, "a")
	m.Insert(150, 250, "b") // overlaps tail of a
	if v, _ := m.Lookup(120); v != "a" {
		t.Errorf("head remnant lost: %q", v)
	}
	if v, _ := m.Lookup(180); v != "b" {
		t.Errorf("overlap not replaced: %q", v)
	}
	if v, _ := m.Lookup(240); v != "b" {
		t.Errorf("extension lost: %q", v)
	}
}

func TestInsertSwallowsContained(t *testing.T) {
	var m Map[string]
	m.Insert(100, 110, "x")
	m.Insert(120, 130, "y")
	m.Insert(90, 140, "big")
	for _, a := range []uint64{95, 105, 125, 139} {
		if v, _ := m.Lookup(a); v != "big" {
			t.Errorf("Lookup(%d) = %q, want big", a, v)
		}
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestInsertSplitsContainer(t *testing.T) {
	var m Map[string]
	m.Insert(100, 200, "outer")
	m.Insert(140, 160, "inner")
	if v, _ := m.Lookup(120); v != "outer" {
		t.Errorf("left remnant: %q", v)
	}
	if v, _ := m.Lookup(150); v != "inner" {
		t.Errorf("inner: %q", v)
	}
	if v, _ := m.Lookup(180); v != "outer" {
		t.Errorf("right remnant: %q", v)
	}
}

func TestRemove(t *testing.T) {
	var m Map[int]
	m.Insert(10, 20, 1)
	m.Insert(20, 30, 2)
	v, ok := m.Remove(15)
	if !ok || v != 1 {
		t.Fatalf("Remove(15) = %d,%v", v, ok)
	}
	if _, ok := m.Lookup(15); ok {
		t.Error("interval still present after Remove")
	}
	if v, ok := m.Lookup(25); !ok || v != 2 {
		t.Error("unrelated interval disturbed")
	}
	if _, ok := m.Remove(15); ok {
		t.Error("second Remove should fail")
	}
}

func TestBoundsAndEach(t *testing.T) {
	var m Map[string]
	m.Insert(5, 10, "a")
	m.Insert(10, 15, "b")
	lo, hi, v, ok := m.Find(12)
	if !ok || lo != 10 || hi != 15 || v != "b" {
		t.Errorf("Find(12) = %d,%d,%q,%v", lo, hi, v, ok)
	}
	var order []string
	m.Each(func(lo, hi uint64, v string) bool {
		order = append(order, v)
		return true
	})
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("Each order = %v", order)
	}
}

func TestEmptyIntervalIgnored(t *testing.T) {
	var m Map[string]
	m.Insert(10, 10, "z")
	if m.Len() != 0 {
		t.Error("empty interval inserted")
	}
}

// Property: after every step of a random series of inserts and removes the
// map holds exactly the intervals a brute-force reference holds, in address
// order, and Find and FindHint, with any hint, agree with the reference on
// random addresses. Inserts come from a dense range (they overlap, split
// and swallow: Insert's general path) and from a sparse one (nothing
// overlaps: its in-place path), and each seed must take both.
func TestAgainstReference(t *testing.T) {
	type ref struct {
		lo, hi uint64
		v      int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var m Map[int]
		var refs []ref
		var inPlace, general int
		hints := make([]int, 4)
		for op := 0; op < 200; op++ {
			switch rng.Intn(3) {
			case 0, 1: // insert
				lo := uint64(rng.Intn(1000))
				if op%2 == 0 {
					lo = uint64(rng.Intn(1 << 20))
				}
				hi := lo + uint64(1+rng.Intn(50))
				v := rng.Int()
				m.Insert(lo, hi, v)
				// Remove overlapped portions from refs.
				var next []ref
				for _, r := range refs {
					if r.hi <= lo || r.lo >= hi {
						next = append(next, r)
						continue
					}
					if r.lo < lo {
						next = append(next, ref{r.lo, lo, r.v})
					}
					if r.hi > hi {
						next = append(next, ref{hi, r.hi, r.v})
					}
				}
				if len(next) == len(refs) {
					inPlace++
				} else {
					general++
				}
				refs = append(next, ref{lo, hi, v})
			case 2: // remove
				a := uint64(rng.Intn(1000))
				m.FindHint(&hints[2], a) // a hint at the freed slot
				m.Remove(a)
				for i, r := range refs {
					if a >= r.lo && a < r.hi {
						refs = append(refs[:i], refs[i+1:]...)
						break
					}
				}
			}
			sort.Slice(refs, func(i, j int) bool { return refs[i].lo < refs[j].lo })
			i := 0
			m.Each(func(lo, hi uint64, v int) bool {
				if i >= len(refs) || refs[i] != (ref{lo, hi, v}) {
					i = -1
					return false
				}
				i++
				return true
			})
			if i != len(refs) {
				return false
			}
			// Find's last-hit memo, and every caller-kept hint, must survive
			// the insert or remove: hints[0] follows the hits, hints[1] lags
			// it by up to five steps (its slot may have shifted), hints[2]
			// names the slot of the last removed interval and hints[3] is out
			// of range.
			if op%5 == 0 {
				hints[1] = hints[0]
			}
			for probe := 0; probe < 4; probe++ {
				a := uint64(rng.Intn(1100))
				var want ref
				for _, r := range refs {
					if a >= r.lo && a < r.hi {
						want = r
					}
				}
				agrees := func(lo, hi uint64, v int, ok bool) bool {
					return ok == (want.hi != 0) && (!ok || want == (ref{lo, hi, v}))
				}
				if !agrees(m.Find(a)) {
					return false
				}
				for k := range hints {
					if k == len(hints)-1 {
						hints[k] = []int{-1, m.Len(), m.Len() + 7, int(^uint(0) >> 1)}[rng.Intn(4)]
					}
					h := hints[k]
					lo, hi, v, ok := m.FindHint(&h, a)
					if !agrees(lo, hi, v, ok) {
						return false
					}
					if ok && !(h < m.Len() && m.ivs[h].lo == lo) {
						return false // the hint must name the slot that hit
					}
					if k == 0 {
						hints[0] = h
					}
				}
			}
		}
		return inPlace > 0 && general > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDisjointInsertAllocatesNothing pins the in-place path: the runtime
// inserts one interval per master-side allocation (specrt's site map), and
// an insert that overlaps nothing, into a map with room, must not rebuild
// the slice.
func TestDisjointInsertAllocatesNothing(t *testing.T) {
	const n = 512
	var m Map[string]
	fill := func() {
		m.ivs = m.ivs[:0]
		// Descending addresses: every insert lands at index 0 and shifts all
		// the intervals already there.
		for i := uint64(n); i > 0; i-- {
			m.Insert(i*32, i*32+16, "site")
		}
	}
	fill() // grows the slice once
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Errorf("%d disjoint inserts into a pre-grown map allocate %.0f objects, want 0", n, allocs)
	}
	if m.Len() != n {
		t.Errorf("map holds %d intervals, want %d", m.Len(), n)
	}
}
