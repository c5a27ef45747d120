package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fattree/internal/des"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chromeTrace mirrors the subset of the Chrome trace-event schema the
// tracer emits, for validity checks.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Ts   *float64               `json:"ts"`
		Dur  *float64               `json:"dur"`
		Args map[string]interface{} `json:"args"`
	} `json:"traceEvents"`
}

func sampleTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.ProcessName(1, "hosts")
	tr.ProcessName(2, "links")
	tr.ThreadName(2, 4, "ch4 n0->n16")
	tr.Instant(1, 0, 0, "inject", Str("msg", "0>5"), Num("seq", 0))
	tr.Complete(2, 4, 100*des.Nanosecond, 512*des.Nanosecond, "pkt 0>5 #0",
		Num("bytes", 2048))
	tr.Instant(2, 4, 700*des.Nanosecond, "head-arrives")
	tr.Counter(0, des.Microsecond, "event_queue", Num("pending", 42))
	tr.Complete(3, 0, 0, 2*des.Microsecond, "stage 0", Num("flows", 2))
	tr.Instant(1, 5, 2*des.Microsecond, "deliver", Str("msg", "0>5"))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.events != 9 {
		t.Fatalf("recorded %d events, want 9", tr.events)
	}
	return buf.Bytes()
}

// TestTraceGolden pins the exact bytes of the Chrome trace-event
// encoding. Regenerate with `go test ./internal/obs -run Golden -update`.
func TestTraceGolden(t *testing.T) {
	got := sampleTrace(t)
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace diverges from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceParses asserts the emitted document is valid JSON in the
// Chrome trace-event shape — what Perfetto actually requires.
func TestTraceParses(t *testing.T) {
	raw := sampleTrace(t)
	var ct chromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
	}
	if ct.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", ct.DisplayTimeUnit)
	}
	if len(ct.TraceEvents) != 9 {
		t.Fatalf("parsed %d events, want 9", len(ct.TraceEvents))
	}
	for i, ev := range ct.TraceEvents {
		if ev.Ph == "" || ev.Name == "" {
			t.Errorf("event %d missing ph/name: %+v", i, ev)
		}
		if ev.Ph != "M" && ev.Ts == nil {
			t.Errorf("event %d (%s) missing ts", i, ev.Name)
		}
		if ev.Ph == "X" && ev.Dur == nil {
			t.Errorf("event %d (%s) is ph=X without dur", i, ev.Name)
		}
	}
	// Spot-check the time unit conversion: 100 ns = 0.1 us.
	if ts := *ct.TraceEvents[4].Ts; ts != 0.1 {
		t.Errorf("Complete ts = %v us, want 0.1", ts)
	}
	if dur := *ct.TraceEvents[4].Dur; dur != 0.512 {
		t.Errorf("Complete dur = %v us, want 0.512", dur)
	}
}

func TestTraceEmptyAndDoubleClose(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("empty trace invalid: %v\n%s", err, buf.Bytes())
	}
	if len(ct.TraceEvents) != 0 {
		t.Errorf("empty trace has %d events", len(ct.TraceEvents))
	}
	// Events after Close are dropped, not appended to a closed array.
	tr.Instant(0, 0, 0, "late")
	if tr.events != 0 {
		t.Error("event recorded after Close")
	}
}

func TestTraceQuoting(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Instant(0, 0, 0, `na"me`, Str(`k"ey`, `v"al`))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("quoted trace invalid: %v\n%s", err, buf.Bytes())
	}
	if ct.TraceEvents[0].Name != `na"me` {
		t.Errorf("name round-trip = %q", ct.TraceEvents[0].Name)
	}
	if ct.TraceEvents[0].Args[`k"ey`] != `v"al` {
		t.Errorf("args round-trip = %v", ct.TraceEvents[0].Args)
	}
}
