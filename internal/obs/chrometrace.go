package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export. The output loads directly in Chrome's
// about://tracing (or Perfetto's legacy importer): events with a duration
// become complete ("X") slices, instants become "i" marks. Threads map the
// runtime's actors — tid 0 is the master/runtime, tid w+1 is worker w — so
// worker activity, checkpoint merges and misspeculations line up visually
// the way Figure 8 attributes them numerically.

type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeName renders an event's display name: the kind, refined by the
// cause label when one exists.
func chromeName(ev Event) string {
	if ev.Cause == "" {
		return ev.Kind.String()
	}
	return ev.Kind.String() + ": " + ev.Cause
}

func chromeArgs(ev Event) map[string]any {
	args := map[string]any{}
	if ev.Invocation >= 0 {
		args["invocation"] = ev.Invocation
	}
	if ev.Iter >= 0 {
		args["iter"] = ev.Iter
	}
	if ev.A != 0 {
		args["a"] = ev.A
	}
	if ev.B != 0 {
		args["b"] = ev.B
	}
	if ev.Site != "" {
		args["site"] = ev.Site
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// chromeEventOf converts one obs event into its trace_event form: spans
// become complete ("X") slices, instants become thread-scoped "i" marks.
func chromeEventOf(ev Event) chromeEvent {
	ce := chromeEvent{
		Name: chromeName(ev),
		Cat:  ev.Kind.String(),
		TS:   float64(ev.TimeNS) / 1e3,
		PID:  1,
		TID:  int64(ev.Worker) + 1,
		Args: chromeArgs(ev),
	}
	if ev.DurNS > 0 {
		ce.Phase = "X"
		ce.Dur = float64(ev.DurNS) / 1e3
	} else {
		ce.Phase = "i"
		ce.Scope = "t"
	}
	return ce
}

// WriteChromeTrace renders events as a Chrome trace_event JSON document.
func WriteChromeTrace(w io.Writer, events []Event) error {
	return writeChromeTrace(w, events)
}

// WriteJobTrace renders one job's event stream as WriteChromeTrace does,
// under process metadata naming the job. The job's time by phase is its
// phase_ns, not a fold of the retained events.
func WriteJobTrace(w io.Writer, jobID string, events []Event) error {
	return writeChromeTrace(w, events, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "job " + jobID},
	})
}

// writeChromeTrace encodes the metadata events meta followed by events.
func writeChromeTrace(w io.Writer, events []Event, meta ...chromeEvent) error {
	out := chromeTrace{TraceEvents: append(make([]chromeEvent, 0, len(meta)+len(events)), meta...),
		DisplayTimeUnit: "ns"}
	for _, ev := range events {
		out.TraceEvents = append(out.TraceEvents, chromeEventOf(ev))
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("obs: chrome trace encode: %w", err)
	}
	return nil
}
