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
// further flags and returns what it printed to stdout with its error.
func runCapturing(t *testing.T, flags ...string) (string, error) {
	t.Helper()
	return capture(t, func() error {
		return run(append([]string{"-prog", "dijkstra", "-input", "train", "-workers", "4"}, flags...))
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
	printed, err := runCapturing(t, "-mode", "privater")
	if err == nil || !strings.Contains(err.Error(), `unknown mode "privater"`) {
		t.Errorf("error %v, want one naming the unknown mode", err)
	}
	if printed != "" {
		t.Errorf("printed %q before rejecting the mode", printed)
	}
}

// TestServeWithoutModeServeRejected: a flag the chosen mode would not read
// is an error that names the flag and the mode, not a flag the run silently
// ignores, and it comes before the sequential baseline runs. What counts is
// that the flag was given, whatever its value. -serve and the service
// tuning flags belong to the region service, so a one-shot run rejects
// them; -mode serve rejects the one-shot flags it drops (runCapturing
// always gives -prog and -input). An -irfile module rejects -prog and
// -input, a named program -args. -misspec, -checkpoint, -seed and
// -why-misspec tune or report speculation, so -mode seq and -mode doall
// reject them.
func TestServeWithoutModeServeRejected(t *testing.T) {
	for _, c := range []struct {
		flags []string
		want  []string
	}{
		{[]string{"-serve", "127.0.0.1:0"}, []string{"-serve", "-mode serve"}},
		{[]string{"-mode", "seq", "-misspec", "0.05"}, []string{"-misspec 0.05", "-mode seq"}},
		{[]string{"-mode", "doall", "-misspec", "0.05"}, []string{"-misspec 0.05", "-mode doall"}},
		{[]string{"-mode", "seq", "-checkpoint", "16"}, []string{"-checkpoint 16", "-mode seq"}},
		{[]string{"-mode", "doall", "-checkpoint", "16"}, []string{"-checkpoint 16", "-mode doall"}},
		{[]string{"-mode", "seq", "-seed", "1"}, []string{"-seed 1", "-mode seq"}},
		{[]string{"-mode", "doall", "-why-misspec"}, []string{"-why-misspec", "-mode doall"}},
		{[]string{"-mode", "seq", "-pool-slots", "3", "-args", "5"}, []string{"-pool-slots 3", "-mode serve", "-mode seq"}},
		{[]string{"-queue-depth", "8"}, []string{"-queue-depth 8", "-mode privateer"}},
		{[]string{"-mode", "doall", "-concurrency", "2"}, []string{"-concurrency 2", "-mode doall"}},
		{[]string{"-tenant-quota", "1", "-trace-capacity", "64", "-flight-entries", "4", "-retain-jobs", "16"},
			[]string{"-tenant-quota 1", "-trace-capacity 64", "-flight-entries 4", "-retain-jobs 16", "-mode serve"}},
		{[]string{"-args", "5"}, []string{"-args 5", "-irfile"}},
		{[]string{"-mode", "seq", "-irfile", "../../internal/ir/testdata/histogram.pir"},
			[]string{"-prog dijkstra", "-input train", "-irfile"}},
		{[]string{"-mode", "serve"}, []string{"-prog dijkstra", "-input train", "-mode serve"}},
		{[]string{"-mode", "serve", "-irfile", "x.pir", "-args", "5", "-checkpoint", "16"},
			[]string{"-irfile x.pir", "-args 5", "-checkpoint 16", "-mode serve"}},
		{[]string{"-mode", "serve", "-O", "-output", "-quiet", "-why-misspec"},
			[]string{"-O true", "-output true", "-quiet true", "-why-misspec true", "-mode serve"}},
	} {
		printed, err := runCapturing(t, c.flags...)
		for _, want := range c.want {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%v: error %v, want one naming %s", c.flags, err, want)
			}
		}
		if printed != "" {
			t.Errorf("%v: printed %q before rejecting the flag", c.flags, printed)
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
//     (testdata/oneshot_doall_PROG.golden);
//
// and of -irfile internal/ir/testdata/histogram.pir at four workers in each
// mode, each leg's result beside the sequential one
// (testdata/oneshot_irfile_MODE.golden).
//
// Outlined regions are named from the module alone, so the text is the same
// on every run, host and process history; the comparison is exact.
// Regenerate for an intended change with
//
//	go test ./cmd/privateer -run TestOneShotReportGolden -update-golden
func TestOneShotReportGolden(t *testing.T) {
	for _, p := range progs.All() {
		t.Run(p.Name, func(t *testing.T) {
			checkOneShotGolden(t, "oneshot_"+p.Name+".golden", "-prog", p.Name, "-input", "train",
				"-workers", "1", "-misspec", "0.05", "-seed", "1", "-why-misspec")
		})
		t.Run("doall_"+p.Name, func(t *testing.T) {
			checkOneShotGolden(t, "oneshot_doall_"+p.Name+".golden", "-prog", p.Name, "-input", "train",
				"-workers", "4", "-mode", "doall", "-output")
		})
	}
	for _, mode := range []string{"seq", "doall", "privateer"} {
		t.Run("irfile_"+mode, func(t *testing.T) {
			checkOneShotGolden(t, "oneshot_irfile_"+mode+".golden",
				"-irfile", "../../internal/ir/testdata/histogram.pir", "-workers", "4", "-mode", mode)
		})
	}
}

// checkOneShotGolden compares what run prints on args with testdata/name,
// or rewrites the file under -update-golden.
func checkOneShotGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	got, err := capture(t, func() error { return run(args) })
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
