package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry in the Chrome trace_event format's
// traceEvents array. Timestamps and durations are microseconds.
// Reference: the "Trace Event Format" document; the subset emitted here
// ("X" complete events and "i" instant events) loads in both
// chrome://tracing and Perfetto.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int32          `json:"pid"`
	TID   int32          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace exports the buffer's records as Chrome trace_event
// JSON. Streams map to trace processes (pid), so a Monte Carlo campaign
// renders as one lane per trial. Dispatch records become "X" complete
// events with wall durations; queued records become "i" instants.
// Records still open (WallDur < 0) are emitted with zero duration.
func (b *TraceBuffer) WriteChromeTrace(w io.Writer) error {
	recs := b.Records()
	tr := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(recs)),
		DisplayTimeUnit: "ns",
		Metadata: map[string]any{
			"source":  "besst",
			"records": len(recs),
			"dropped": b.Dropped(),
		},
	}
	for _, r := range recs {
		ev := chromeEvent{
			TS:  float64(r.Wall) / 1e3,
			PID: r.Stream,
		}
		switch r.Kind {
		case KindDispatch:
			ev.Name = fmt.Sprintf("dispatch c%d", r.Comp)
			ev.Phase = "X"
			if r.WallDur > 0 {
				ev.Dur = float64(r.WallDur) / 1e3
			}
			ev.Args = map[string]any{"comp": r.Comp, "sim_ns": r.Sim}
		case KindQueued:
			ev.Name = fmt.Sprintf("queue c%d", r.Comp)
			ev.Phase = "i"
			ev.Scope = "t"
			ev.Args = map[string]any{"dst": r.Comp, "sim_ns": r.Sim, "deliver_ns": r.Aux}
		default:
			continue
		}
		tr.TraceEvents = append(tr.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}
