package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"privateer/internal/progs"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/profile_heaps_*.golden from this build")

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

// TestProfileHeapsGolden pins the whole stdout of
// `privateer-dump -prog P -input train -profile -heaps` for the five
// programs, byte for byte: the hot loops with their carried dependences,
// then the heap assignment, predictions and check counts the profile leads
// to. Regenerate with
//
//	go test ./cmd/privateer-dump -run TestProfileHeapsGolden -update-golden
func TestProfileHeapsGolden(t *testing.T) {
	for _, p := range progs.All() {
		t.Run(p.Name, func(t *testing.T) {
			got, err := capture(t, func() error {
				return run(p.Name, "train", false, true, true, false, false, false, "")
			})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "profile_heaps_"+p.Name+".golden")
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
				t.Errorf("dump changed (regenerate with -update-golden if intended):\n got:\n%s want:\n%s", got, want)
			}
		})
	}
}
