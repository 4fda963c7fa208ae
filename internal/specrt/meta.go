package specrt

import (
	"encoding/binary"
	"fmt"
	"math"

	"privateer/internal/ir"
)

// Shadow metadata codes (section 5.1). Every byte of private memory has a
// corresponding shadow byte holding one of these codes; timestamps encode
// the iteration relative to the last checkpoint.
const (
	// MetaLiveIn marks a byte untouched since the parallel region began.
	MetaLiveIn byte = 0
	// MetaOldWrite marks a byte written before the last checkpoint.
	MetaOldWrite byte = 1
	// MetaReadLiveIn marks a byte whose live-in value was read; full
	// validation is deferred to the next checkpoint.
	MetaReadLiveIn byte = 2
	// MetaTSBase is the timestamp of the first iteration after a
	// checkpoint: code 3+(i-i0).
	MetaTSBase byte = 3
)

// MaxCheckpointPeriod bounds iterations per checkpoint so that timestamps
// fit a byte: the paper triggers a checkpoint at least every 253 iterations.
const MaxCheckpointPeriod = 253

// TimestampFor encodes iteration iter relative to checkpoint base i0.
func TimestampFor(iter, i0 int64) byte { return byte(MetaTSBase + byte(iter-i0)) }

// wordHasTS reports whether any byte of the little-endian metadata word w
// is a timestamp (>= MetaTSBase). Bulk shadow scans use it to skip eight
// untouched-or-old-write bytes at a time: the first term catches any byte
// with a bit above position 1 set (value >= 4), the second catches the
// only remaining >= 3 pattern, 0b11. The shifted cross-lane bits cannot
// produce a false positive because they land outside the 0x01 lane mask
// unless bit 1 of the same byte is set.
func wordHasTS(w uint64) bool {
	return w&0xFCFCFCFCFCFCFCFC != 0 || w&(w>>1)&0x0101010101010101 != 0
}

// wordTouched reports whether any byte of the little-endian metadata word
// w records a speculative access (anything but MetaLiveIn=0b00 and
// MetaOldWrite=0b01): some byte has a bit above position 0 set.
func wordTouched(w uint64) bool {
	return w&0xFEFEFEFEFEFEFEFE != 0
}

// ReadTransition implements the "Read" rows of Table 2: given the byte's
// metadata and the current iteration timestamp, it returns the new metadata
// and whether the access misspeculates (a loop-carried flow dependence was
// observed, or would be unverifiable).
func ReadTransition(meta, ts byte) (byte, bool) {
	switch meta {
	case MetaLiveIn:
		return MetaReadLiveIn, false // read a live-in value
	case MetaOldWrite:
		return meta, true // loop-carried flow dependence
	case MetaReadLiveIn:
		return MetaReadLiveIn, false // read a live-in value again
	default:
		if meta == ts {
			return meta, false // intra-iteration (private) flow
		}
		return meta, true // 2 < a < ts: loop-carried flow dependence
	}
}

// WriteTransition implements the "Write" rows of Table 2.
func WriteTransition(meta, ts byte) (byte, bool) {
	switch meta {
	case MetaLiveIn, MetaOldWrite:
		return ts, false // overwrite a live-in value / an old write
	case MetaReadLiveIn:
		// Overwriting a byte that looked live-in cannot be verified
		// without inter-worker communication; conservatively misspeculate
		// (the paper's acknowledged potential false positive).
		return ts, true
	default:
		return ts, false // overwrite a recent write
	}
}

// ResetMeta implements the checkpoint reset: timestamps collapse to
// old-write, the other codes persist.
func ResetMeta(meta byte) byte {
	if meta >= MetaTSBase {
		return MetaOldWrite
	}
	return meta
}

// MergeByte applies one worker's shadow summary for a byte onto a
// checkpoint's combined view, using the same transition rules (the second
// phase of privacy validation, section 5.2). It returns the new combined
// metadata, whether the worker's data value should replace the checkpoint's,
// and whether the merge detects a violation.
func MergeByte(combined, workerMeta byte) (newMeta byte, takeData, misspec bool) {
	switch workerMeta {
	case MetaLiveIn, MetaOldWrite:
		// Untouched this interval, or already merged at an earlier
		// checkpoint: nothing to add.
		return combined, false, false
	case MetaReadLiveIn:
		// The worker read this byte as live-in; if any other contribution
		// wrote it, privacy cannot be guaranteed.
		if combined == MetaOldWrite || combined >= MetaTSBase {
			return combined, false, true
		}
		return MetaReadLiveIn, false, false
	default: // a timestamp
		if combined == MetaReadLiveIn {
			// Another worker read the live-in value this interval.
			return combined, false, true
		}
		if combined < MetaTSBase || workerMeta >= combined {
			// First write, or a later iteration's write: take the data.
			return workerMeta, true, false
		}
		// An already-merged later iteration wins; drop this write.
		return combined, false, false
	}
}

// fillIdentity writes op's identity element over every elemSize-byte
// element of dst; a trailing partial element gets the identity's low bytes.
func fillIdentity(op ir.ReduxKind, elemSize int64, dst []byte) error {
	var id uint64
	switch op {
	case ir.ReduxAddI64, ir.ReduxAddF64:
		// zero
	case ir.ReduxMinI64:
		id = uint64(math.MaxInt64)
	case ir.ReduxMaxI64:
		id = uint64(1) << 63 // MinInt64 bit pattern
	case ir.ReduxMinF64:
		id = math.Float64bits(math.Inf(1))
	case ir.ReduxMaxF64:
		id = math.Float64bits(math.Inf(-1))
	default:
		return fmt.Errorf("specrt: no identity for reduction op %s", op)
	}
	for off := int64(0); off < int64(len(dst)); off += elemSize {
		putUint(dst[off:min(off+elemSize, int64(len(dst)))], id)
	}
	return nil
}

// Combine folds src into dst elementwise with the reduction operator.
func Combine(op ir.ReduxKind, elemSize int64, dst, src []byte) error {
	if len(dst) != len(src) || len(dst)%int(elemSize) != 0 {
		return fmt.Errorf("specrt: combine size mismatch: %d vs %d (elem %d)",
			len(dst), len(src), elemSize)
	}
	for off := 0; off < len(dst); off += int(elemSize) {
		d := getUint(dst[off : off+int(elemSize)])
		s := getUint(src[off : off+int(elemSize)])
		var r uint64
		switch op {
		case ir.ReduxAddI64:
			r = d + s
		case ir.ReduxAddF64:
			r = math.Float64bits(math.Float64frombits(d) + math.Float64frombits(s))
		case ir.ReduxMinI64:
			r = uint64(min(int64(d), int64(s)))
		case ir.ReduxMaxI64:
			r = uint64(max(int64(d), int64(s)))
		case ir.ReduxMinF64:
			r = math.Float64bits(math.Min(math.Float64frombits(d), math.Float64frombits(s)))
		case ir.ReduxMaxF64:
			r = math.Float64bits(math.Max(math.Float64frombits(d), math.Float64frombits(s)))
		default:
			return fmt.Errorf("specrt: cannot combine with op %s", op)
		}
		putUint(dst[off:off+int(elemSize)], r)
	}
	return nil
}

func putUint(b []byte, v uint64) {
	if len(b) == 8 {
		binary.LittleEndian.PutUint64(b, v)
		return
	}
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

func getUint(b []byte) uint64 {
	if len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var v uint64
	for i := range b {
		v |= uint64(b[i]) << (8 * i)
	}
	// Sign-extension is unnecessary: operations are performed at the
	// element width for adds (wrap-around matches), and min/max users in
	// this codebase use full 8-byte elements.
	return v
}
