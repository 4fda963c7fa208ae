package interp

import (
	"reflect"
	"testing"
)

// TestDecodedEntryIsOneCacheLine pins the decoded entry's size: the dispatch
// loop reads one entry per dispatch, and one that outgrew 64 bytes would
// straddle two cache lines.
func TestDecodedEntryIsOneCacheLine(t *testing.T) {
	if got := reflect.TypeOf(dinstr{}).Size(); got != 64 {
		t.Errorf("dinstr is %d bytes, want 64", got)
	}
}
