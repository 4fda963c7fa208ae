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
// -mode, -serve, -misspec and -checkpoint and returns what it printed to
// stdout with its error.
func runCapturing(t *testing.T, mode, serve string, misspec float64, period int64) (string, error) {
	t.Helper()
	return capture(t, func() error {
		return run("dijkstra", "train", 4, mode, serve, misspec, 1, period, false, false)
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
	printed, err := runCapturing(t, "privater", "", 0, 0)
	if err == nil || !strings.Contains(err.Error(), `unknown mode "privater"`) {
		t.Errorf("error %v, want one naming the unknown mode", err)
	}
	if printed != "" {
		t.Errorf("printed %q before rejecting the mode", printed)
	}
}

// TestServeWithoutModeServeRejected: a flag the chosen mode would not read
// is an error that names the flag and the mode, not a flag the run silently
// ignores, and it comes before the sequential baseline runs. -serve is the
// region service's listen address, so a one-shot run rejects it; -misspec
// and -checkpoint tune speculation, so -mode seq and -mode doall reject
// them.
func TestServeWithoutModeServeRejected(t *testing.T) {
	for _, c := range []struct {
		mode, serve string
		misspec     float64
		period      int64
		want        []string
	}{
		{"privateer", "127.0.0.1:0", 0, 0, []string{"-serve", "-mode serve"}},
		{"seq", "", 0.05, 0, []string{"-misspec 0.05", "-mode seq"}},
		{"doall", "", 0.05, 0, []string{"-misspec 0.05", "-mode doall"}},
		{"seq", "", 0, 16, []string{"-checkpoint 16", "-mode seq"}},
		{"doall", "", 0, 16, []string{"-checkpoint 16", "-mode doall"}},
	} {
		printed, err := runCapturing(t, c.mode, c.serve, c.misspec, c.period)
		for _, want := range c.want {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%+v: error %v, want one naming %s", c, err, want)
			}
		}
		if printed != "" {
			t.Errorf("%+v: printed %q before rejecting the flag", c, printed)
		}
	}
}

// TestOneShotReportGolden pins the whole stdout of a one-shot privateer run
// on every program's train input, for two inputs:
//
//   - -mode privateer at one worker with -why-misspec: the pipeline summary,
//     the totals lines, the simulated time and the attribution table. At one
//     worker the injected squash points (rate 0.05, seed 1) do not depend on
//     scheduling (testdata/oneshot_PROG.golden);
//   - -mode doall at four workers with -output: the DOALL-only loop report,
//     its totals line and the program's output
//     (testdata/oneshot_doall_PROG.golden).
//
// Outlined regions are named from the module alone, so the text is the same
// on every run, host and process history; the comparison is exact.
// Regenerate for an intended change with
//
//	go test ./cmd/privateer -run TestOneShotReportGolden -update-golden
func TestOneShotReportGolden(t *testing.T) {
	saved := whyMisspec
	whyMisspec = true
	defer func() { whyMisspec = saved }()
	for _, p := range progs.All() {
		t.Run(p.Name, func(t *testing.T) {
			checkOneShotGolden(t, "oneshot_"+p.Name+".golden", func() error {
				return run(p.Name, "train", 1, "privateer", "", 0.05, 1, 0, false, false)
			})
		})
		t.Run("doall_"+p.Name, func(t *testing.T) {
			checkOneShotGolden(t, "oneshot_doall_"+p.Name+".golden", func() error {
				return run(p.Name, "train", 4, "doall", "", 0, 1, 0, true, false)
			})
		})
	}
}

// checkOneShotGolden compares what f prints with testdata/name, or rewrites
// the file under -update-golden.
func checkOneShotGolden(t *testing.T, name string, f func() error) {
	t.Helper()
	got, err := capture(t, f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
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
}
