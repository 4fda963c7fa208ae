package interp

import (
	"testing"
	"unsafe"
)

// TestDecodedEntryIsOneCacheLine pins the decoded entry's size: the dispatch
// loop reads one entry per dispatch, and one that outgrew 64 bytes would
// straddle two cache lines.
func TestDecodedEntryIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(dinstr{}); got != 64 {
		t.Errorf("dinstr is %d bytes, want 64", got)
	}
}
