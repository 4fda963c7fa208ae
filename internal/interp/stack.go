package interp

import "privateer/internal/ir"

// frameStack is an interpreter's activation-record storage: one reusable
// Frame per live-activation index, and value arrays carved in LIFO order
// from a list of slabs. A slab is never reallocated, so a value array keeps
// its backing memory for as long as its activation is live, however deep
// the callees below it go; growth adds a slab. After warm-up a call
// allocates nothing.
type frameStack struct {
	frames []*Frame
	// live counts the activations in progress; it, not Frame.Depth, indexes
	// frames, so a hook that re-enters Call on the same interpreter stacks on
	// top of the activations it interrupted.
	live int

	slabs [][]uint64
	// cur and top are the carve position: slabs[cur][top:] is free, and so
	// is every slab after cur.
	cur, top int
}

// carve returns n value slots from the top of the stack. The contents are
// whatever the previous user left; callers that need zeroes clear them.
func (s *frameStack) carve(n int) []uint64 {
	for ; s.cur < len(s.slabs); s.cur, s.top = s.cur+1, 0 {
		if slab := s.slabs[s.cur]; s.top+n <= len(slab) {
			v := slab[s.top : s.top+n : s.top+n]
			s.top += n
			return v
		}
	}
	// The first slab is exactly the entry frame, so an interpreter that
	// makes one shallow call pays what a plain make would; later slabs
	// double.
	size := n
	if len(s.slabs) > 0 {
		size = max(n, 2*len(s.slabs[len(s.slabs)-1]))
	}
	s.slabs = append(s.slabs, make([]uint64, size))
	s.top = n
	return s.slabs[s.cur][:n:n]
}

// release rewinds the carve position to a value saved before a carve.
func (s *frameStack) release(cur, top int) { s.cur, s.top = cur, top }

// push opens an activation of fn. Its value slots hold whatever the previous
// user left: call fills them, from the frame image or with zeroes.
func (s *frameStack) push(fn *ir.Function, depth int, caller *Frame) *Frame {
	if s.live == len(s.frames) {
		s.frames = append(s.frames, &Frame{})
	}
	fr := s.frames[s.live]
	s.live++
	fr.Fn, fr.Depth, fr.Caller = fn, depth, caller
	fr.slab, fr.base = s.cur, s.top
	fr.vals = s.carve(fn.NumValues())
	fr.allocas = fr.allocas[:0]
	return fr
}

// pop closes the most recent activation, which must be fr.
func (s *frameStack) pop(fr *Frame) {
	s.live--
	s.release(fr.slab, fr.base)
}

// reset empties the stack, keeping its frames and slabs for reuse.
func (s *frameStack) reset() { s.live, s.cur, s.top = 0, 0, 0 }
