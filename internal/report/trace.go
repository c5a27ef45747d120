package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// TraceEvent is one Chrome trace-event record, the subset of fields the
// obs.Tracer emits.
type TraceEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Ts   float64                `json:"ts"`  // microseconds
	Dur  float64                `json:"dur"` // microseconds (ph == "X")
	Args map[string]interface{} `json:"args"`
}

// TraceData is a parsed Chrome trace document.
type TraceData struct {
	Schema string
	Events []TraceEvent
}

// traceDoc is the document envelope.
type traceDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		Schema string `json:"schema"`
	} `json:"otherData"`
	TraceEvents []TraceEvent `json:"traceEvents"`
}

// ParseTrace reads a whole Chrome trace-event document (the -trace file
// written via obs.FileSinks).
func ParseTrace(r io.Reader) (*TraceData, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("report: reading trace: %w", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("report: trace is not a Chrome trace document: %w", err)
	}
	return &TraceData{Schema: doc.OtherData.Schema, Events: doc.TraceEvents}, nil
}

// StageSpan is one collective-phase marker of the trace.
type StageSpan struct {
	Name     string
	Start    float64 // microseconds
	Dur      float64
	Messages float64 // "messages"/"flows" arg when present
}

// StageSpans extracts the "stage N" phase markers, in time order as
// emitted. Both the simulator (collective lane) and fthsd's synthetic
// timeline name their spans this way.
func (d *TraceData) StageSpans() []StageSpan {
	if d == nil {
		return nil
	}
	var spans []StageSpan
	for _, ev := range d.Events {
		if ev.Ph != "X" || !strings.HasPrefix(ev.Name, "stage ") {
			continue
		}
		s := StageSpan{Name: ev.Name, Start: ev.Ts, Dur: ev.Dur}
		for _, key := range []string{"messages", "flows"} {
			if v, ok := ev.Args[key].(float64); ok {
				s.Messages = v
				break
			}
		}
		spans = append(spans, s)
	}
	return spans
}
