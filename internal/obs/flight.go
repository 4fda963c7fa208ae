package obs

import "sync"

// Flight recorder: an always-on, bounded postmortem buffer. When a job
// misspeculates, falls back to sequential execution, fails, or is rejected
// at admission, the service snapshots the tail of the job's event stream
// plus its misspeculation→allocation-site attribution into the recorder, so
// an operator arriving after the fact still has the evidence — the same
// motivation as a cockpit flight recorder: the interesting window is the
// one just before things went wrong.

// DefaultFlightEntries is the number of postmortems retained when the
// configuration does not say otherwise.
const DefaultFlightEntries = 32

// DefaultPostmortemEvents bounds the per-postmortem event snapshot: the
// last N events of the job's trace ring.
const DefaultPostmortemEvents = 256

// MisspecAttribution is one row of misspeculation attribution carried into
// a postmortem: which region, cause, instruction site, and allocation-site
// object the violations clustered on. It mirrors the runtime's
// misspeculation-site table without importing it.
type MisspecAttribution struct {
	// Region is the parallel region the misspeculations occurred in.
	Region string `json:"region"`
	// Cause is the misspeculation reason label.
	Cause string `json:"cause"`
	// Site is the faulting instruction, when one was identified.
	Site string `json:"site,omitempty"`
	// Object is the allocation site of the object the violation touched,
	// when the faulting address resolved to a live object.
	Object string `json:"object,omitempty"`
	// Count is how many misspeculations share this attribution.
	Count int64 `json:"count"`
}

// Postmortem is one captured failure record.
type Postmortem struct {
	// JobID is the failed job's id ("" for admission rejections, which
	// never received one).
	JobID string `json:"job_id,omitempty"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// Prog is the submitted program.
	Prog string `json:"prog"`
	// Input is the submitted input class.
	Input string `json:"input"`
	// Reason classifies the capture: "misspec", "fallback", "failed" or
	// "rejected".
	Reason string `json:"reason"`
	// Error is the job error or rejection message, when there was one.
	Error string `json:"error,omitempty"`
	// UnixNS is the capture time in nanoseconds since the Unix epoch.
	UnixNS int64 `json:"unix_ns"`
	// Misspecs counts the run's detected misspeculations.
	Misspecs int64 `json:"misspecs"`
	// Fallbacks counts the run's sequential fallbacks.
	Fallbacks int64 `json:"fallbacks"`
	// Events is the tail of the job's trace ring at capture time.
	Events []Event `json:"events,omitempty"`
	// TotalEvents is how many events the job emitted in all.
	TotalEvents int64 `json:"total_events"`
	// DroppedEvents is how many of those the bounded ring had already
	// overwritten and the recorder therefore could not capture.
	DroppedEvents int64 `json:"dropped_events"`
	// Phases is the job's phase-latency breakdown at capture time.
	Phases []PhaseSpan `json:"phases,omitempty"`
	// Attribution maps the misspeculations to allocation sites.
	Attribution []MisspecAttribution `json:"attribution,omitempty"`
}

// FlightRecorder retains the last N postmortems in a ring.
type FlightRecorder struct {
	mu      sync.Mutex
	buf     []Postmortem
	cap     int
	next    int
	total   int64
	wrapped bool

	byReason map[string]int64
	// reg, once PublishMetrics has run, counts every Record by reason.
	reg *Registry
}

// NewFlightRecorder returns a recorder retaining up to entries postmortems;
// entries <= 0 selects DefaultFlightEntries.
func NewFlightRecorder(entries int) *FlightRecorder {
	if entries <= 0 {
		entries = DefaultFlightEntries
	}
	return &FlightRecorder{cap: entries, byReason: map[string]int64{}}
}

// Record captures pm, evicting the oldest postmortem when full.
func (fr *FlightRecorder) Record(pm Postmortem) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	if len(fr.buf) < fr.cap {
		fr.buf = append(fr.buf, pm)
	} else {
		fr.buf[fr.next] = pm
		fr.next++
		if fr.next == fr.cap {
			fr.next = 0
		}
		fr.wrapped = true
	}
	fr.total++
	fr.byReason[pm.Reason]++
	reg := fr.reg
	fr.mu.Unlock()
	postmortemsTotal(reg, pm.Reason).Inc()
}

// postmortemsTotal is reg's count of postmortems recorded for reason (an
// inert handle on a nil registry).
func postmortemsTotal(reg *Registry, reason string) Counter {
	return reg.Counter("privateer_flight_postmortems_total",
		"Postmortems ever recorded by the flight recorder, by reason.", "reason", reason)
}

// Snapshot returns the retained postmortems, newest first.
func (fr *FlightRecorder) Snapshot() []Postmortem {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]Postmortem, 0, len(fr.buf))
	if fr.wrapped {
		for i := fr.next - 1; i >= 0; i-- {
			out = append(out, fr.buf[i])
		}
		for i := len(fr.buf) - 1; i >= fr.next; i-- {
			out = append(out, fr.buf[i])
		}
	} else {
		for i := len(fr.buf) - 1; i >= 0; i-- {
			out = append(out, fr.buf[i])
		}
	}
	return out
}

// Total returns how many postmortems were ever recorded, including evicted
// ones.
func (fr *FlightRecorder) Total() int64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.total
}

// FlightState is the JSON document /debug/flight serves.
type FlightState struct {
	// Capacity is the recorder's ring size.
	Capacity int `json:"capacity"`
	// Total counts postmortems ever recorded, evictions included.
	Total int64 `json:"total"`
	// Retained is len(Postmortems).
	Retained int `json:"retained"`
	// ByReason counts recorded postmortems per reason label.
	ByReason map[string]int64 `json:"by_reason,omitempty"`
	// Postmortems lists the retained captures, newest first.
	Postmortems []Postmortem `json:"postmortems"`
}

// State snapshots the recorder for serving.
func (fr *FlightRecorder) State() FlightState {
	if fr == nil {
		return FlightState{}
	}
	pms := fr.Snapshot()
	fr.mu.Lock()
	st := FlightState{
		Capacity:    fr.cap,
		Total:       fr.total,
		Retained:    len(pms),
		ByReason:    make(map[string]int64, len(fr.byReason)),
		Postmortems: pms,
	}
	for k, v := range fr.byReason {
		st.ByReason[k] = v
	}
	fr.mu.Unlock()
	return st
}

// PublishMetrics registers flight-recorder health metrics on reg: the
// retained-buffer size, read at scrape time, and the count of postmortems
// per reason, which Record adds to from now on (the ones recorded before
// are added here).
func (fr *FlightRecorder) PublishMetrics(reg *Registry) {
	if fr == nil || reg == nil {
		return
	}
	reg.GaugeFunc("privateer_flight_retained",
		"Postmortems currently retained in the flight recorder ring.",
		func() float64 {
			fr.mu.Lock()
			defer fr.mu.Unlock()
			return float64(len(fr.buf))
		})
	fr.mu.Lock()
	fr.reg = reg
	for reason, n := range fr.byReason {
		postmortemsTotal(reg, reason).Add(n)
	}
	fr.mu.Unlock()
}
