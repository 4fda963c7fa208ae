package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"privateer/internal/core"
	"privateer/internal/progs"
	"privateer/internal/specrt"
)

// The determinism golden file pins the observable execution of all five
// benchmark programs — printed output, step counts, and simulated time — for
// both the sequential interpreter and the speculative runtime. Any refactor
// of the execution core (decoder, TLB, scheduler) must leave every field
// byte-identical; regenerate only for intentional semantic changes, with
//
//	go test ./internal/bench -run TestDeterminismGolden -update-golden

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden file of the test being run from the current implementation")

// detRecord is the pinned observable behavior of one benchmark program.
type detRecord struct {
	Program      string `json:"program"`
	SeqResult    uint64 `json:"seq_result"`
	SeqSteps     int64  `json:"seq_steps"`
	SeqOutSHA    string `json:"seq_output_sha256"`
	RTResult     uint64 `json:"rt_result"`
	RTOutSHA     string `json:"rt_output_sha256"`
	MasterSteps  int64  `json:"master_steps"`
	UsefulSteps  int64  `json:"useful_steps"`
	SimTime      int64  `json:"sim_time"`
	Misspecs     int64  `json:"misspecs"`
	Recoveries   int64  `json:"recoveries"`
	Invocations  int64  `json:"invocations"`
	DoallResult  uint64 `json:"doall_result"`
	DoallOutSHA  string `json:"doall_output_sha256"`
	DoallSimTime int64  `json:"doall_sim_time"`
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// detWorkers is the fixed machine size for the golden runs.
const detWorkers = 8

func computeDeterminism(t *testing.T) []detRecord {
	t.Helper()
	var out []detRecord
	for _, p := range progs.All() {
		in := p.Train
		seqRet, seqOut, err := core.RunSequential(p.Build(in))
		if err != nil {
			t.Fatalf("%s sequential: %v", p.Name, err)
		}
		seqIt, _, err := runSequential(p, in)
		if err != nil {
			t.Fatal(err)
		}
		par, err := core.Parallelize(p.Build(in), core.Options{})
		if err != nil {
			t.Fatalf("%s parallelize: %v", p.Name, err)
		}
		rt, rtRet, err := core.Run(par, specrt.Config{Workers: detWorkers})
		if err != nil {
			t.Fatalf("%s speculative run: %v", p.Name, err)
		}
		static, err := core.ParallelizeStatic(p.Build(in), core.Options{})
		if err != nil {
			t.Fatalf("%s static parallelize: %v", p.Name, err)
		}
		srt, srtRet, err := core.Run(static, specrt.Config{Workers: detWorkers})
		if err != nil {
			t.Fatalf("%s doall run: %v", p.Name, err)
		}
		out = append(out, detRecord{
			Program:      p.Name,
			SeqResult:    seqRet,
			SeqSteps:     seqIt.Steps,
			SeqOutSHA:    sha(seqOut),
			RTResult:     rtRet,
			RTOutSHA:     sha(rt.Output()),
			MasterSteps:  rt.Sim.SeqSteps,
			UsefulSteps:  rt.Sim.UsefulSteps,
			SimTime:      rt.Sim.Time(),
			Misspecs:     rt.Stats.Misspecs,
			Recoveries:   rt.Stats.Recoveries,
			Invocations:  rt.Stats.Invocations,
			DoallResult:  srtRet,
			DoallOutSHA:  sha(srt.Output()),
			DoallSimTime: srt.Sim.Time(),
		})
	}
	return out
}

func goldenPath() string {
	return filepath.Join("testdata", "determinism_golden.json")
}

func TestDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-benchmark determinism run")
	}
	got := computeDeterminism(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath())
		return
	}
	raw, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var want []detRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d programs, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: determinism mismatch\n got  %+v\n want %+v",
				got[i].Program, got[i], want[i])
		}
	}
}
