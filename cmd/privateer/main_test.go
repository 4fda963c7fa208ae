package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCapturing calls run on dijkstra/train with the given -mode and -serve
// and returns what it printed to stdout with its error.
func runCapturing(t *testing.T, mode, serve string) (string, error) {
	t.Helper()
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	saved := os.Stdout
	os.Stdout = stdout
	err = run("dijkstra", "train", 4, mode, serve, 0, 1, 0, false, false)
	os.Stdout = saved
	printed, readErr := os.ReadFile(stdout.Name())
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(printed), err
}

// TestUnknownModeRejectedBeforeAnythingRuns: a mistyped -mode fails next to
// the -prog and -input checks, before the sequential baseline is
// interpreted and its step count printed (seconds on ref inputs).
func TestUnknownModeRejectedBeforeAnythingRuns(t *testing.T) {
	printed, err := runCapturing(t, "privater", "")
	if err == nil || !strings.Contains(err.Error(), `unknown mode "privater"`) {
		t.Errorf("error %v, want one naming the unknown mode", err)
	}
	if printed != "" {
		t.Errorf("printed %q before rejecting the mode", printed)
	}
}

// TestServeWithoutModeServeRejected: -serve is the region service's listen
// address; on a one-shot run it is an error that says so, not a flag the
// run silently ignores.
func TestServeWithoutModeServeRejected(t *testing.T) {
	printed, err := runCapturing(t, "privateer", "127.0.0.1:0")
	if err == nil || !strings.Contains(err.Error(), "-mode serve") {
		t.Errorf("error %v, want one naming -mode serve", err)
	}
	if printed != "" {
		t.Errorf("printed %q before rejecting -serve", printed)
	}
}
