package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Parent is an index into the same
// recorder's span list, -1 for an op's root span; Op identifies the
// benchmark operation every span of that operation shares.
type span struct {
	Name   string
	Start  int64 // ns since the recorder's epoch
	End    int64
	Parent int
	Op     int
}

// recorder is the harness's in-memory span recorder. It belongs to one
// goroutine. A nil recorder records nothing, which is how the timed
// passes run with tracing off.
type recorder struct {
	epoch time.Time
	tid   int
	spans []span
	open  []int // stack of open span indices
}

func newRecorder(epoch time.Time, tid int) *recorder {
	return &recorder{epoch: epoch, tid: tid}
}

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(name string, op int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op,
		Start: int64(time.Since(r.epoch))})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children of one parent are calls
// made one after another on one goroutine, so they do not overlap.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := s.Start, s.End
			if lo < p.Start {
				lo = p.Start
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				self[s.Parent] -= hi - lo
			}
		}
	}
	return self
}

// rootSelfShare returns the largest share of a root (op) span that no
// child span covers: the work of an op the ledger cannot attribute.
func rootSelfShare(spans []span) float64 {
	self := selfTimes(spans)
	worst := 0.0
	for i, s := range spans {
		if s.Parent >= 0 || s.End <= s.Start {
			continue
		}
		if share := float64(self[i]) / float64(s.End-s.Start); share > worst {
			worst = share
		}
	}
	return worst
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes every recorder's spans as Chrome trace JSON
// (chrome://tracing, Perfetto). Span and parent identifiers are indices
// within their thread.
func writeChromeTrace(path string, recs []*recorder) error {
	events := []chromeEvent{}
	for _, r := range recs {
		for i, s := range r.spans {
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", PID: 1, TID: r.tid,
				TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
