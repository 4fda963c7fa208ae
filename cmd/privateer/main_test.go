package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privateer/internal/progs"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/oneshot_*.golden from this build")

// runCapturing calls run on dijkstra/train at 4 workers with the given
// -mode and -serve and returns what it printed to stdout with its error.
func runCapturing(t *testing.T, mode, serve string) (string, error) {
	t.Helper()
	return capture(t, func() error {
		return run("dijkstra", "train", 4, mode, serve, 0, 1, 0, false, false)
	})
}

// capture calls f with os.Stdout redirected to a file and returns what f
// printed with its error.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	saved := os.Stdout
	os.Stdout = stdout
	err = f()
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

// TestOneShotReportGolden pins the whole stdout of a one-shot privateer run
// with -why-misspec on every program's train input: the pipeline summary,
// the totals lines, the simulated time and the attribution table. At one
// worker the injected squash points (rate 0.05, seed 1) do not depend on
// scheduling, and outlined regions are named from the module alone, so the
// text is the same on every run, host and process history; the comparison
// is exact.
// Regenerate for an intended change with
//
//	go test ./cmd/privateer -run TestOneShotReportGolden -update-golden
func TestOneShotReportGolden(t *testing.T) {
	saved := whyMisspec
	whyMisspec = true
	defer func() { whyMisspec = saved }()
	for _, p := range progs.All() {
		t.Run(p.Name, func(t *testing.T) {
			got, err := capture(t, func() error {
				return run(p.Name, "train", 1, "privateer", "", 0.05, 1, 0, false, false)
			})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "oneshot_"+p.Name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("report changed (regenerate with -update-golden if intended):\n got:\n%s want:\n%s", got, want)
			}
		})
	}
}
