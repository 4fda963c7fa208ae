package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// reference is the expected outcome of one op, from a source that does
// not share code with the path under test: progs.Reference (native Go)
// for the paper programs, sequential interpretation of the untransformed
// module for random programs.
type reference struct {
	ret uint64
	out string
	// float allows the repo's 1e-9 relative tolerance on the result and
	// on numeric output tokens: parallel reduction folds reassociate
	// floating-point sums (052.alvinn).
	float bool
}

const floatTol = 1e-9

func closeEnough(g, w float64) bool {
	return g == w || math.Abs(g-w) <= floatTol*(math.Abs(w)+1)
}

// check returns nil when ret and out match the reference.
func (r reference) check(ret uint64, out string) error {
	if !r.float {
		if ret != r.ret {
			return fmt.Errorf("result %#x, want %#x", ret, r.ret)
		}
		if out != r.out {
			return fmt.Errorf("output differs from reference (%d bytes, want %d)", len(out), len(r.out))
		}
		return nil
	}
	if !closeEnough(math.Float64frombits(ret), math.Float64frombits(r.ret)) {
		return fmt.Errorf("result %v, want %v", math.Float64frombits(ret), math.Float64frombits(r.ret))
	}
	if out == r.out {
		return nil
	}
	gt, wt := strings.Fields(out), strings.Fields(r.out)
	if len(gt) != len(wt) {
		return fmt.Errorf("output has %d tokens, want %d", len(gt), len(wt))
	}
	for i := range gt {
		if gt[i] == wt[i] {
			continue
		}
		g, errG := strconv.ParseFloat(gt[i], 64)
		w, errW := strconv.ParseFloat(wt[i], 64)
		if errG != nil || errW != nil || !closeEnough(g, w) {
			return fmt.Errorf("output token %d is %q, want %q", i, gt[i], wt[i])
		}
	}
	return nil
}

// corrupted returns r with one expected output bit flipped.
func (r reference) corrupted() reference {
	r.ret ^= 1 << 40
	r.out += "x"
	return r
}
