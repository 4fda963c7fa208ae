package specrt

import (
	"fmt"
	"testing"

	"privateer/internal/ir"
	"privateer/internal/vm"
)

// TestCrossValidateShardedEquivalence: the sharded chain validation must
// report the same first-violating checkpoint as the serial walk for every
// shard count, including chains where different pages violate at different
// intervals (the answer is the minimum over pages).
func TestCrossValidateShardedEquivalence(t *testing.T) {
	pageBase := func(i int) uint64 {
		return ir.ShadowAddr(ir.HeapPrivate.Base()+uint64(i+1)*vm.PageSize) &^ uint64(vm.PageSize-1)
	}
	// A chain of 6 intervals over 32 pages: page p is written in interval
	// p%3 and read live-in in interval p%3+d (violating when d>0). Page 7
	// violates earliest (interval 1); most pages are clean.
	build := func() *checkpoint {
		var chain []*checkpoint
		var prev *checkpoint
		for id := int64(0); id < 6; id++ {
			cp := newCheckpoint(id, id*4, (id+1)*4, prev)
			chain = append(chain, cp)
			prev = cp
		}
		for p := 0; p < 32; p++ {
			base := pageBase(p)
			w := int64(p % 3)
			chain[w].ownPage(chain[w].shadow, base)[p] = MetaTSBase
			if p == 7 {
				chain[w+1].ownPage(chain[w+1].shadow, base)[p] = MetaReadLiveIn
			} else if p%5 == 0 {
				chain[w+2].ownPage(chain[w+2].shadow, base)[p] = MetaReadLiveIn
			} else {
				chain[w+1].ownPage(chain[w+1].shadow, base)[p+1] = MetaReadLiveIn // disjoint byte: clean
			}
		}
		return chain[5]
	}
	want := build().crossValidate()
	if want < 0 {
		t.Fatal("test chain should violate")
	}
	for _, shards := range []int{1, 2, 3, 8, 64} {
		if got := build().crossValidateSharded(shards); got != want {
			t.Errorf("shards=%d: first violation %d, want %d", shards, got, want)
		}
	}
	// A clean chain must stay clean at every shard count.
	clean := func() *checkpoint {
		cp0 := newCheckpoint(0, 0, 4, nil)
		cp1 := newCheckpoint(1, 4, 8, cp0)
		for p := 0; p < 32; p++ {
			cp0.ownPage(cp0.shadow, pageBase(p))[1] = MetaTSBase
			cp1.ownPage(cp1.shadow, pageBase(p))[2] = MetaReadLiveIn
		}
		return cp1
	}
	for _, shards := range []int{1, 2, 8} {
		if got := clean().crossValidateSharded(shards); got != -1 {
			t.Errorf("clean chain, shards=%d: flagged %d", shards, got)
		}
	}
}

// TestShardedMergeEquivalence: addWorkerState must produce the same merged
// checkpoint (data, shadow, verdict) whether the page scan is serial or
// sharded.
func TestShardedMergeEquivalence(t *testing.T) {
	mkWorker := func() *vm.AddressSpace {
		ws := vm.NewAddressSpace()
		for p := 0; p < 16; p++ {
			addr := ir.HeapPrivate.Base() + uint64(p)*vm.PageSize + uint64(p)
			if err := ws.Write(addr, 1, uint64(p+1)); err != nil {
				t.Fatal(err)
			}
			if err := ws.Write(ir.ShadowAddr(addr), 1, uint64(MetaTSBase)); err != nil {
				t.Fatal(err)
			}
		}
		return ws
	}
	merge := func(shards int) *checkpoint {
		cp := newCheckpoint(0, 0, 4, nil)
		ok, scanned, contributed := cp.addWorkerState(0, mkWorker(), nil, nil, nil, shards)
		if !ok || scanned == 0 || contributed != 1 {
			t.Fatalf("shards=%d: ok=%v scanned=%d contributed=%d", shards, ok, scanned, contributed)
		}
		return cp
	}
	ref := merge(1)
	for _, shards := range []int{2, 4, 8} {
		got := merge(shards)
		if len(got.data) != len(ref.data) || len(got.shadow) != len(ref.shadow) {
			t.Fatalf("shards=%d: page counts diverged", shards)
		}
		for base, pg := range ref.data {
			if fmt.Sprint(got.data[base]) != fmt.Sprint(pg) {
				t.Errorf("shards=%d: data page %#x diverged", shards, base)
			}
		}
		for base, pg := range ref.shadow {
			if fmt.Sprint(got.shadow[base]) != fmt.Sprint(pg) {
				t.Errorf("shards=%d: shadow page %#x diverged", shards, base)
			}
		}
	}
}
