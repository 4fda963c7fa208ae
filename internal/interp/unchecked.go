package interp

import "unsafe"

// The decoded executor (execDecoded, runEdge) reads and writes frame slots
// and fetches code entries through the three accessors below, which index
// without a bounds check. This is the only use of unsafe in the execution
// core, and it is sound because of one invariant:
//
//   - decodeFunc (decode.go) proves, once per function, that every slot an
//     entry's case reads or writes (a, b, c and dst) and every φ-copy's src
//     and dst lies in [0, NumValues). An instruction it cannot prove that of
//     decodes to a guard entry (opGuard), which reads no slot and stops the
//     run with an error; an edge it cannot prove carries that error instead
//     of its copies.
//   - decodeFunc also proves that every branch target is a block start of
//     the same code array, and every block's code ends in a terminator or a
//     guard entry, so pc never runs off the array; a stop run (stopRun)
//     ends in its opStop entry.
//   - call checks, once per activation, that the frame holds at least
//     NumValues slots before the first entry runs.

// slot returns vals[i]; i must lie in [0, len(vals)).
func slot(vals []uint64, i int32) uint64 {
	return *(*uint64)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(vals)), uintptr(i)*8))
}

// setSlot stores v in vals[i]; i must lie in [0, len(vals)).
func setSlot(vals []uint64, i int32, v uint64) {
	*(*uint64)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(vals)), uintptr(i)*8)) = v
}

// entryAt returns &code[pc]; pc must lie in [0, len(code)).
func entryAt(code []dinstr, pc int32) *dinstr {
	return (*dinstr)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(code)), uintptr(pc)*unsafe.Sizeof(dinstr{})))
}
