package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// spanEvent mirrors the trace-event fields spans serialize.
type spanEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	Args map[string]interface{} `json:"args"`
}

func parseSpans(t *testing.T, raw string) []spanEvent {
	t.Helper()
	var doc struct {
		TraceEvents []spanEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("span trace is not valid Chrome JSON: %v\n%s", err, raw)
	}
	return doc.TraceEvents
}

func TestSpanTracerEmitsLinkedSpans(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(&b)
	st := NewSpanTracer(tr, 9, "daemon")

	root := st.StartTrace("GET /v1/route")
	root.Tag(Str("src", "0"), Num("dst", 17))
	child := root.Child("lookup")
	child.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	events := parseSpans(t, b.String())
	var spans []spanEvent
	for _, ev := range events {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	ch, rt := spans[0], spans[1] // child ends first
	if ch.Name != "lookup" || rt.Name != "GET /v1/route" {
		t.Fatalf("span names: %q, %q", ch.Name, rt.Name)
	}
	if ch.Args["trace_id"] != rt.Args["trace_id"] {
		t.Fatalf("trace ids differ: %v vs %v", ch.Args["trace_id"], rt.Args["trace_id"])
	}
	if ch.Args["parent_id"] != rt.Args["span_id"] {
		t.Fatalf("child parent %v != root span %v", ch.Args["parent_id"], rt.Args["span_id"])
	}
	if rt.Args["src"] != "0" || rt.Args["dst"] != float64(17) {
		t.Fatalf("tags lost: %v", rt.Args)
	}
	if ch.Pid != 9 || rt.Pid != 9 || ch.Tid != rt.Tid {
		t.Fatalf("lane placement: pid %d/%d tid %d/%d", ch.Pid, rt.Pid, ch.Tid, rt.Tid)
	}
}

// TestSpanTracerDistinctTraces: two roots get distinct trace ids.
func TestSpanTracerDistinctTraces(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(&b)
	st := NewSpanTracer(tr, 1, "d")
	a := st.StartTrace("a")
	c := st.StartTrace("b")
	if a.trace == c.trace {
		t.Fatalf("trace ids not distinct: %x vs %x", a.trace, c.trace)
	}
	a.End()
	c.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanNilSafety: the disabled chain never panics and emits nothing.
func TestSpanNilSafety(t *testing.T) {
	var st *SpanTracer
	sp := st.StartTrace("x")
	sp.Tag(Str("k", "v"))
	ch := sp.Child("y")
	ch.End()
	sp.End()
	if sp != nil || ch != nil {
		t.Fatal("nil chain leaked a value")
	}
	if NewSpanTracer(nil, 1, "x") != nil {
		t.Fatal("NewSpanTracer(nil) should be nil")
	}
}
