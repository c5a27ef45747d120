package report

import (
	"bytes"
	"strings"
	"testing"

	"fattree/internal/des"
	"fattree/internal/obs"
	"fattree/internal/schema"
)

// TestParseTraceRoundTrip feeds the parser a document written by the
// real obs.Tracer.
func TestParseTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	tr.ProcessName(1, "collective")
	tr.Complete(1, 0, 0, 2*des.Microsecond, "stage 0", obs.Num("messages", 9))
	tr.Complete(1, 0, 2*des.Microsecond, des.Microsecond, "stage 1", obs.Num("messages", 9))
	tr.Complete(2, 0, 0, des.Nanosecond, "send")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != schema.Trace {
		t.Errorf("schema = %q, want %q", d.Schema, schema.Trace)
	}
	named := false
	for _, ev := range d.Events {
		named = named || ev.Ph == "M" && ev.Name == "process_name" && ev.Pid == 1 && ev.Args["name"] == "collective"
	}
	if !named {
		t.Error("process_name record for pid 1 not parsed")
	}
	spans := d.StageSpans()
	if len(spans) != 2 {
		t.Fatalf("stage spans = %d, want 2: %+v", len(spans), spans)
	}
	if spans[0].Name != "stage 0" || spans[0].Messages != 9 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	// Tracer timestamps are microseconds; 2 µs of simulated time.
	if spans[1].Start != 2 || spans[1].Dur != 1 {
		t.Errorf("span 1 timing = %+v", spans[1])
	}

	var nilData *TraceData
	if nilData.StageSpans() != nil {
		t.Error("nil TraceData accessors not nil-safe")
	}
}

func TestParseTraceRejectsGarbage(t *testing.T) {
	if _, err := ParseTrace(strings.NewReader("not a trace")); err == nil {
		t.Error("garbage accepted as trace")
	}
}
