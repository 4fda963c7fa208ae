package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quick runs one experiment the way `privateer-bench -quick -programs
// dijkstra` would and returns what it printed.
func quick(experiment string, jsonOut bool, traceOut string) (string, error) {
	var out bytes.Buffer
	err := run(&out, experiment, "", true, "dijkstra", 0, jsonOut, traceOut)
	return out.String(), err
}

// TestEveryExperimentRuns: every name the -experiment help lists (the help
// is rendered from the same table) produces output, and -json is honoured
// exactly where the help says it is.
func TestEveryExperimentRuns(t *testing.T) {
	for _, e := range experiments {
		e := e
		t.Run(e.name, func(t *testing.T) {
			out, err := quick(e.name, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(out) == "" {
				t.Error("no output")
			}
			out, err = quick(e.name, true, "")
			if e.report == nil {
				if err == nil || !strings.Contains(err.Error(), "no -json output") {
					t.Errorf("-json on a text-only experiment: error %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			checkNoClockKeys(t, []byte(out))
		})
	}
}

// checkNoClockKeys: the variant report is deterministic end to end, so its
// JSON carries no wall-clock column — no key ending in _ns and no bare
// "speedup" (sim_speedup says what it is).
func checkNoClockKeys(t *testing.T, raw []byte) {
	t.Helper()
	var rep struct {
		Programs []map[string]any `json:"programs"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if len(rep.Programs) != 1 {
		t.Fatalf("%d program rows, want 1", len(rep.Programs))
	}
	for key := range rep.Programs[0] {
		if strings.HasSuffix(key, "_ns") || key == "speedup" {
			t.Errorf("wall-clock key %q in the variant report", key)
		}
	}
}

// TestUnknownExperiment: the removed wall-clock experiments and a typo are
// rejected by name.
func TestUnknownExperiment(t *testing.T) {
	for _, name := range []string{"micro", "obsoverhead", "fig66"} {
		out, err := quick(name, false, "")
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("%s: error %v, want unknown experiment", name, err)
		}
		if out != "" {
			t.Errorf("%s: printed %q before failing", name, out)
		}
	}
}

// TestTraceExport: -trace writes a well-formed trace_event file (CI's
// trace smoke runs the same command and checks only that it exits 0).
func TestTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := quick("fig9", false, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Error("trace file is not valid JSON")
	}
	if !bytes.Contains(raw, []byte(`"traceEvents"`)) {
		t.Error("trace file has no traceEvents array")
	}
}
