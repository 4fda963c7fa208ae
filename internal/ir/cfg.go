package ir

import "sort"

// DomTree is a dominator tree over a function's CFG, computed with the
// Cooper-Harvey-Kennedy iterative algorithm on reverse postorder.
type DomTree struct {
	fn *Function
	// idom[b.Index] is the immediate dominator's index; entry maps to
	// itself; unreachable blocks map to -1.
	idom []int
	// rpo is the reverse postorder of reachable blocks.
	rpo []*Block
	// rpoNum[b.Index] is b's position in rpo, or -1 if unreachable.
	rpoNum []int
}

// BuildDomTree computes the dominator tree of f. The function's predecessor
// lists must be current (call f.Recompute first).
func BuildDomTree(f *Function) *DomTree {
	n := len(f.Blocks)
	dt := &DomTree{fn: f, idom: make([]int, n), rpoNum: make([]int, n)}
	for i := range dt.idom {
		dt.idom[i] = -1
		dt.rpoNum[i] = -1
	}

	// Postorder DFS from entry.
	visited := make([]bool, n)
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		visited[b.Index] = true
		for _, s := range b.Succs() {
			if !visited[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	dt.rpo = make([]*Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		dt.rpoNum[post[i].Index] = len(dt.rpo)
		dt.rpo = append(dt.rpo, post[i])
	}

	entry := f.Entry()
	dt.idom[entry.Index] = entry.Index
	for changed := true; changed; {
		changed = false
		for _, b := range dt.rpo[1:] {
			var newIdom *Block
			for _, p := range b.Preds() {
				if dt.idom[p.Index] == -1 {
					continue // not yet processed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = dt.intersect(p, newIdom)
				}
			}
			if newIdom != nil && dt.idom[b.Index] != newIdom.Index {
				dt.idom[b.Index] = newIdom.Index
				changed = true
			}
		}
	}
	return dt
}

func (dt *DomTree) intersect(a, b *Block) *Block {
	f := dt.fn
	for a != b {
		for dt.rpoNum[a.Index] > dt.rpoNum[b.Index] {
			a = f.Blocks[dt.idom[a.Index]]
		}
		for dt.rpoNum[b.Index] > dt.rpoNum[a.Index] {
			b = f.Blocks[dt.idom[b.Index]]
		}
	}
	return a
}

// IDom returns b's immediate dominator, or nil for the entry block and
// unreachable blocks.
func (dt *DomTree) IDom(b *Block) *Block {
	i := dt.idom[b.Index]
	if i == -1 || i == b.Index {
		return nil
	}
	return dt.fn.Blocks[i]
}

// Dominates reports whether a dominates b (reflexively).
func (dt *DomTree) Dominates(a, b *Block) bool {
	if dt.idom[b.Index] == -1 {
		return false // b unreachable
	}
	for {
		if a == b {
			return true
		}
		i := dt.idom[b.Index]
		if i == b.Index {
			return false // reached entry
		}
		b = dt.fn.Blocks[i]
	}
}

// Reachable reports whether b is reachable from the entry block.
func (dt *DomTree) Reachable(b *Block) bool { return dt.idom[b.Index] != -1 }

// DominanceFrontiers computes the dominance frontier of every block
// (Cytron et al.), used by PromoteAllocas for phi placement.
func (dt *DomTree) DominanceFrontiers() [][]*Block {
	f := dt.fn
	df := make([][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		if len(b.Preds()) < 2 || !dt.Reachable(b) {
			continue
		}
		for _, p := range b.Preds() {
			if !dt.Reachable(p) {
				continue
			}
			runner := p
			for runner != dt.fn.Blocks[dt.idom[b.Index]] {
				if !containsBlock(df[runner.Index], b) {
					df[runner.Index] = append(df[runner.Index], b)
				}
				next := dt.idom[runner.Index]
				if next == runner.Index {
					break
				}
				runner = f.Blocks[next]
			}
		}
	}
	return df
}

func containsBlock(s []*Block, b *Block) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}

// Loop is a natural loop: the header plus every block that can reach a back
// edge source without leaving the loop.
type Loop struct {
	// Header is the loop entry block (target of the back edges).
	Header *Block
	// Blocks is the loop body including the header, in deterministic order.
	Blocks []*Block
	// Latches are the sources of back edges into Header.
	Latches []*Block
	// Exits are blocks outside the loop that are successors of loop blocks.
	Exits []*Block
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Children are the loops immediately nested inside this one.
	Children []*Loop
	// Depth is the nesting depth (outermost loops have depth 1).
	Depth int

	blockSet map[*Block]bool
}

// Contains reports whether b belongs to the loop body.
func (l *Loop) Contains(b *Block) bool { return l.blockSet[b] }

// ContainsInstr reports whether in is inside the loop body.
func (l *Loop) ContainsInstr(in *Instr) bool { return l.blockSet[in.Blk] }

// String returns a short description for diagnostics.
func (l *Loop) String() string {
	return l.Header.Fn.Name + ":" + l.Header.Name
}

// FindLoops detects all natural loops of f and returns them outermost-first,
// with parent/child nesting resolved. Irreducible control flow (a branch
// into a loop body that bypasses the header) is not detected as a loop,
// matching standard natural-loop analysis.
func FindLoops(f *Function, dt *DomTree) []*Loop {
	// Collect back edges: b -> h where h dominates b.
	type backEdge struct{ src, head *Block }
	var edges []backEdge
	for _, b := range f.Blocks {
		if !dt.Reachable(b) {
			continue
		}
		for _, s := range b.Succs() {
			if dt.Dominates(s, b) {
				edges = append(edges, backEdge{b, s})
			}
		}
	}
	// Merge back edges sharing a header into one loop.
	byHeader := map[*Block]*Loop{}
	var loops []*Loop
	for _, e := range edges {
		l := byHeader[e.head]
		if l == nil {
			l = &Loop{Header: e.head, blockSet: map[*Block]bool{e.head: true}}
			byHeader[e.head] = l
			loops = append(loops, l)
		}
		l.Latches = append(l.Latches, e.src)
		// Walk predecessors backwards from the latch until the header.
		stack := []*Block{e.src}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if l.blockSet[b] {
				continue
			}
			l.blockSet[b] = true
			for _, p := range b.Preds() {
				if dt.Reachable(p) {
					stack = append(stack, p)
				}
			}
		}
	}
	// Deterministic block order and exit computation.
	for _, l := range loops {
		for _, b := range f.Blocks {
			if l.blockSet[b] {
				l.Blocks = append(l.Blocks, b)
			}
		}
		seen := map[*Block]bool{}
		for _, b := range l.Blocks {
			for _, s := range b.Succs() {
				if !l.blockSet[s] && !seen[s] {
					seen[s] = true
					l.Exits = append(l.Exits, s)
				}
			}
		}
	}
	// Nesting: loop A is inside loop B if B contains A's header and A != B.
	// The innermost such B is the parent.
	sort.Slice(loops, func(i, j int) bool { return len(loops[i].Blocks) > len(loops[j].Blocks) })
	for _, l := range loops {
		for _, candidate := range loops {
			if candidate == l || !candidate.blockSet[l.Header] {
				continue
			}
			if l.Parent == nil || len(candidate.Blocks) < len(l.Parent.Blocks) {
				l.Parent = candidate
			}
		}
	}
	for _, l := range loops {
		if l.Parent != nil {
			l.Parent.Children = append(l.Parent.Children, l)
		}
	}
	var setDepth func(l *Loop, d int)
	setDepth = func(l *Loop, d int) {
		l.Depth = d
		for _, c := range l.Children {
			setDepth(c, d+1)
		}
	}
	for _, l := range loops {
		if l.Parent == nil {
			setDepth(l, 1)
		}
	}
	return loops
}

// InductionVar describes a canonical induction variable: a header phi that
// starts at Init on loop entry and advances by +1 each trip, with the loop
// exiting when IV < Limit fails. This is the shape DOALL requires.
type InductionVar struct {
	// Phi is the header phi carrying the IV.
	Phi *Instr
	// Init is the IV's value on loop entry.
	Init Value
	// Limit is the exclusive upper bound.
	Limit Value
	// Cmp is the comparison governing the exit branch.
	Cmp *Instr
	// ExitBlock is the block control reaches when the loop finishes.
	ExitBlock *Block
	// BodyEntry is the successor taken while the loop continues.
	BodyEntry *Block
}

// FindInductionVar recognizes the canonical counted-loop pattern in l:
//
//	header: iv = phi [init, preheader], [iv.next, latch]
//	        c = slt iv, limit
//	        condbr c, body, exit
//	latch:  iv.next = add iv, 1
//
// It returns nil if the loop does not match. Limit and Init must be defined
// outside the loop (loop-invariant).
func FindInductionVar(l *Loop) *InductionVar {
	header := l.Header
	term := header.Terminator()
	if term == nil || term.Op != OpCondBr {
		return nil
	}
	cmp, ok := term.Args[0].(*Instr)
	if !ok || cmp.Op != OpSLt || cmp.Blk != header {
		return nil
	}
	phi, ok := cmp.Args[0].(*Instr)
	if !ok || phi.Op != OpPhi || phi.Blk != header {
		return nil
	}
	limit := cmp.Args[1]
	if li, isInstr := limit.(*Instr); isInstr && l.ContainsInstr(li) {
		return nil // limit must be loop-invariant
	}
	if len(phi.Args) != 2 {
		return nil
	}
	var init Value
	var step *Instr
	for i, in := range phi.Args {
		pred := phi.Preds[i]
		if l.Contains(pred) {
			s, isInstr := in.(*Instr)
			if !isInstr {
				return nil
			}
			step = s
		} else {
			init = in
		}
	}
	if step == nil || init == nil {
		return nil
	}
	if ii, isInstr := init.(*Instr); isInstr && l.ContainsInstr(ii) {
		return nil
	}
	// step must be iv + 1.
	if step.Op != OpAdd || len(step.Args) != 2 || step.Args[0] != Value(phi) {
		return nil
	}
	one, isConst := step.Args[1].(*Instr)
	if !isConst || one.Op != OpConst || one.Const != 1 {
		return nil
	}
	body, exit := term.Targets[0], term.Targets[1]
	if !l.Contains(body) || l.Contains(exit) {
		return nil
	}
	return &InductionVar{Phi: phi, Init: init, Limit: limit, Cmp: cmp, ExitBlock: exit, BodyEntry: body}
}
