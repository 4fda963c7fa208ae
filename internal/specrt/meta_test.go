package specrt

import (
	"math"
	"testing"
	"testing/quick"

	"privateer/internal/ir"
)

// TestTable2Transitions checks every row of the paper's Table 2 exactly.
func TestTable2Transitions(t *testing.T) {
	beta := TimestampFor(7, 3) // some current-iteration timestamp
	alpha := TimestampFor(5, 3)
	if alpha >= beta {
		t.Fatal("test setup: alpha must be an earlier timestamp")
	}
	type row struct {
		write   bool
		before  byte
		after   byte
		misspec bool
		comment string
	}
	rows := []row{
		{false, 0, 2, false, "read a live-in value"},
		{false, 1, 1, true, "loop-carried flow dependence"},
		{false, 2, 2, false, "read a live-in value"},
		{false, alpha, alpha, true, "loop-carried flow dependence"},
		{false, beta, beta, false, "intra-iteration (private) flow"},
		{true, 0, beta, false, "overwrite a live-in value"},
		{true, 1, beta, false, "overwrite an old write"},
		{true, 2, beta, true, "conservative false positive"},
		{true, alpha, beta, false, "overwrite a recent write"},
		{true, beta, beta, false, "overwrite a recent write (same iter)"},
	}
	for _, r := range rows {
		var after byte
		var miss bool
		if r.write {
			after, miss = WriteTransition(r.before, beta)
		} else {
			after, miss = ReadTransition(r.before, beta)
		}
		if after != r.after || miss != r.misspec {
			op := "read"
			if r.write {
				op = "write"
			}
			t.Errorf("%s(before=%d): got (%d, %v), want (%d, %v) [%s]",
				op, r.before, after, miss, r.after, r.misspec, r.comment)
		}
	}
}

func TestResetMeta(t *testing.T) {
	cases := map[byte]byte{0: 0, 1: 1, 2: 2, 3: 1, 4: 1, 200: 1, 255: 1}
	for in, want := range cases {
		if got := ResetMeta(in); got != want {
			t.Errorf("ResetMeta(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestTimestampWithinByte(t *testing.T) {
	// The full checkpoint period must stay inside a byte.
	base := int64(1000)
	for i := base; i < base+MaxCheckpointPeriod; i++ {
		ts := TimestampFor(i, base)
		if ts < MetaTSBase {
			t.Fatalf("timestamp for iter %d collides with a code: %d", i, ts)
		}
	}
}

func TestMergeByteRules(t *testing.T) {
	ts5 := TimestampFor(5, 0)
	ts9 := TimestampFor(9, 0)
	cases := []struct {
		combined, worker byte
		wantMeta         byte
		take, miss       bool
	}{
		{0, 0, 0, false, false},       // untouched
		{0, 1, 0, false, false},       // old write: merged earlier
		{0, 2, 2, false, false},       // first read-live-in
		{2, 2, 2, false, false},       // two readers agree
		{1, 2, 1, false, true},        // read live-in after old write
		{ts5, 2, ts5, false, true},    // read live-in after a write
		{0, ts5, ts5, true, false},    // first write
		{ts5, ts9, ts9, true, false},  // later iteration wins
		{ts9, ts5, ts9, false, false}, // earlier write dropped
		{2, ts5, 2, false, true},      // write after a live-in read
	}
	for _, c := range cases {
		meta, take, miss := MergeByte(c.combined, c.worker)
		if meta != c.wantMeta || take != c.take || miss != c.miss {
			t.Errorf("MergeByte(%d, %d) = (%d,%v,%v), want (%d,%v,%v)",
				c.combined, c.worker, meta, take, miss, c.wantMeta, c.take, c.miss)
		}
	}
}

func TestIdentityAndCombine(t *testing.T) {
	for _, op := range []ir.ReduxKind{ir.ReduxAddI64, ir.ReduxAddF64,
		ir.ReduxMinI64, ir.ReduxMaxI64, ir.ReduxMinF64, ir.ReduxMaxF64} {
		id := make([]byte, 8)
		if err := fillIdentity(op, 8, id); err != nil {
			t.Fatalf("fillIdentity(%s): %v", op, err)
		}
		// identity ⊕ x == x
		x := make([]byte, 8)
		putUint(x, 12345)
		if op == ir.ReduxAddF64 || op == ir.ReduxMinF64 || op == ir.ReduxMaxF64 {
			putUint(x, math.Float64bits(123.5))
		}
		dst := append([]byte(nil), id...)
		if err := Combine(op, 8, dst, x); err != nil {
			t.Fatalf("Combine(%s): %v", op, err)
		}
		for i := range dst {
			if dst[i] != x[i] {
				t.Errorf("%s: identity not neutral: %v vs %v", op, dst, x)
				break
			}
		}
	}
}

// Property: Combine with add.i64 is commutative and associative over random
// byte vectors.
func TestCombineAddProperties(t *testing.T) {
	f := func(a, b, c [16]byte) bool {
		ab := a
		if Combine(ir.ReduxAddI64, 8, ab[:], b[:]) != nil {
			return false
		}
		ba := b
		if Combine(ir.ReduxAddI64, 8, ba[:], a[:]) != nil {
			return false
		}
		if ab != ba {
			return false
		}
		// (a+b)+c == a+(b+c)
		abc1 := ab
		if Combine(ir.ReduxAddI64, 8, abc1[:], c[:]) != nil {
			return false
		}
		bc := b
		if Combine(ir.ReduxAddI64, 8, bc[:], c[:]) != nil {
			return false
		}
		abc2 := a
		if Combine(ir.ReduxAddI64, 8, abc2[:], bc[:]) != nil {
			return false
		}
		return abc1 == abc2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCombineMinMax(t *testing.T) {
	a := make([]byte, 8)
	b := make([]byte, 8)
	neg5 := int64(-5)
	putUint(a, uint64(neg5))
	putUint(b, 3)
	if err := Combine(ir.ReduxMinI64, 8, a, b); err != nil {
		t.Fatal(err)
	}
	if int64(getUint(a)) != -5 {
		t.Errorf("min(-5,3) = %d", int64(getUint(a)))
	}
	neg5 = int64(-5)
	putUint(a, uint64(neg5))
	putUint(b, 3)
	if err := Combine(ir.ReduxMaxI64, 8, a, b); err != nil {
		t.Fatal(err)
	}
	if int64(getUint(a)) != 3 {
		t.Errorf("max(-5,3) = %d", int64(getUint(a)))
	}
}

func TestCombineSizeMismatch(t *testing.T) {
	if err := Combine(ir.ReduxAddI64, 8, make([]byte, 8), make([]byte, 16)); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if err := Combine(ir.ReduxAddI64, 8, make([]byte, 12), make([]byte, 12)); err == nil {
		t.Error("non-multiple length accepted")
	}
}

func TestCrossValidateDetectsInterIntervalConflict(t *testing.T) {
	// Interval 0 writes a byte; interval 1 reads it as "live-in".
	cp0 := newCheckpoint(0, 0, 10, nil)
	cp1 := newCheckpoint(1, 10, 20, cp0)
	const addr = uint64(0x5000_0000_1000) // some shadow page address
	sh0 := cp0.ownPage(cp0.shadow, addr)
	sh0[5] = TimestampFor(3, 0)
	sh1 := cp1.ownPage(cp1.shadow, addr)
	sh1[5] = MetaReadLiveIn
	if got, _ := cp1.crossValidate(); got != 1 {
		t.Errorf("crossValidate = %d, want 1", got)
	}
	// The reverse order: read-live-in in interval 0, write in interval 1
	// (conservative violation at interval 1).
	cpA := newCheckpoint(0, 0, 10, nil)
	cpB := newCheckpoint(1, 10, 20, cpA)
	shA := cpA.ownPage(cpA.shadow, addr)
	shA[7] = MetaReadLiveIn
	shB := cpB.ownPage(cpB.shadow, addr)
	shB[7] = TimestampFor(12, 10)
	if got, _ := cpB.crossValidate(); got != 1 {
		t.Errorf("reverse crossValidate = %d, want 1", got)
	}
	// Clean chains validate.
	cpX := newCheckpoint(0, 0, 10, nil)
	cpY := newCheckpoint(1, 10, 20, cpX)
	shX := cpX.ownPage(cpX.shadow, addr)
	shX[9] = TimestampFor(2, 0)
	shY := cpY.ownPage(cpY.shadow, addr)
	shY[9] = TimestampFor(15, 10) // write after write: fine
	if got, _ := cpY.crossValidate(); got != -1 {
		t.Errorf("clean chain flagged at %d", got)
	}
}
