package ir

// The external tests of this package (package ir_test, which may import the
// compile layers) watch the use index through this helper.

// WatchIndexedRedux hands every answer a UseIndex gives to watch until the
// returned function is called.
func WatchIndexedRedux(watch func(st, load *Instr, kind ReduxKind, size int64, ok bool)) (stop func()) {
	indexedRedux = watch
	return func() { indexedRedux = nil }
}
