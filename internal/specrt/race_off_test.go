//go:build !race

package specrt_test

const raceEnabled = false
