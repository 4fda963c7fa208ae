package specrt

import (
	"testing"

	"privateer/internal/ir"
	"privateer/internal/vm"
)

// newCheckpoint returns a checkpoint that allocates its buffers and is
// never parked.
func newCheckpoint(id, base, limit int64, prev *checkpoint) *checkpoint {
	return (*bufFree)(nil).checkpoint(id, base, limit, prev)
}

// TestCrossValidateFirstViolation: over a chain where different pages
// violate at different intervals, chain validation must report the earliest
// violating checkpoint and the address of a byte that violates there — the
// walk is oldest-first over checkpoints, so the map order of pages within
// one checkpoint may pick among ties but never a later interval.
func TestCrossValidateFirstViolation(t *testing.T) {
	pageBase := func(i int) uint64 {
		return ir.ShadowAddr(ir.HeapPrivate.Base()+uint64(i+1)*vm.PageSize) &^ uint64(vm.PageSize-1)
	}
	// A chain of 6 intervals over 32 pages: page p is written in interval
	// p%3 and read live-in in interval p%3+d (violating when d>0 and the
	// byte is the same). Page 7 and the pages with p%5 == 0 violate, the
	// earliest of them (0, 7, 15, 30) in interval 2; the rest are clean.
	var chain []*checkpoint
	var prev *checkpoint
	for id := int64(0); id < 6; id++ {
		cp := newCheckpoint(id, id*4, (id+1)*4, prev)
		chain = append(chain, cp)
		prev = cp
	}
	firstAddrs := map[uint64]bool{}
	for p := 0; p < 32; p++ {
		base := pageBase(p)
		w := int64(p % 3)
		chain[w].ownPage(chain[w].shadow, base)[p] = MetaTSBase
		switch {
		case p == 7:
			chain[w+1].ownPage(chain[w+1].shadow, base)[p] = MetaReadLiveIn
		case p%5 == 0:
			chain[w+2].ownPage(chain[w+2].shadow, base)[p] = MetaReadLiveIn
		default:
			chain[w+1].ownPage(chain[w+1].shadow, base)[p+1] = MetaReadLiveIn // disjoint byte: clean
		}
		if p == 7 || (p%5 == 0 && w == 0) {
			firstAddrs[(base&^ir.ShadowBit)+uint64(p)] = true
		}
	}
	id, addr := chain[5].crossValidate()
	if id != 2 || !firstAddrs[addr] {
		t.Errorf("first violation (%d, %#x), want interval 2 at one of %d addresses", id, addr, len(firstAddrs))
	}
	// The prefix below the first violation is clean.
	if id, addr := chain[1].crossValidate(); id != -1 || addr != 0 {
		t.Errorf("clean prefix flagged (%d, %#x)", id, addr)
	}
	// A clean chain stays clean.
	cp0 := newCheckpoint(0, 0, 4, nil)
	cp1 := newCheckpoint(1, 4, 8, cp0)
	for p := 0; p < 32; p++ {
		cp0.ownPage(cp0.shadow, pageBase(p))[1] = MetaTSBase
		cp1.ownPage(cp1.shadow, pageBase(p))[2] = MetaReadLiveIn
	}
	if id, addr := cp1.crossValidate(); id != -1 || addr != 0 {
		t.Errorf("clean chain flagged (%d, %#x)", id, addr)
	}
}
