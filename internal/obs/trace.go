package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"

	"fattree/internal/des"
	"fattree/internal/schema"
)

// Tracer writes a Chrome trace-event stream: a JSON object whose
// traceEvents array holds one event per call. The output opens directly
// in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Timestamps are des.Time picoseconds converted to the format's
// microsecond unit, so simulated time reads naturally in the viewer.
// Process IDs (pid) group lanes — the simulator uses one process for
// hosts, one for links and one for collective phase markers — and
// thread IDs (tid) are the lanes themselves (host index, channel index).
//
// All methods are nil-safe no-ops and safe for concurrent use. The
// first write error is latched and reported by Close/Err.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	events int64
	err    error
	closed bool
}

// Arg is one key/value entry of a trace event's args object.
type Arg struct {
	key   string
	str   string
	num   float64
	isStr bool
}

// Str builds a string-valued event argument.
func Str(key, val string) Arg { return Arg{key: key, str: val, isStr: true} }

// Num builds a number-valued event argument.
func Num(key string, val float64) Arg { return Arg{key: key, num: val} }

// NewTracer starts a trace stream on w. Call Close to finish the JSON
// document; without it the file is truncated mid-array and viewers
// reject it.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: bufio.NewWriter(w)}
	_, t.err = t.w.WriteString(
		"{\"displayTimeUnit\":\"ns\",\"otherData\":{\"schema\":\"" + schema.Trace + "\"},\"traceEvents\":[")
	return t
}

// Close terminates the JSON document and flushes. Safe to call on nil
// and more than once.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err == nil {
		_, t.err = t.w.WriteString("]}\n")
	}
	if ferr := t.w.Flush(); t.err == nil {
		t.err = ferr
	}
	return t.err
}

// ts formats a picosecond time as the trace format's microseconds.
func ts(t des.Time) string {
	return strconv.FormatFloat(float64(t)/1e6, 'g', -1, 64)
}

// writeEvent emits one raw event. header is the pre-rendered portion up
// to (not including) the args object; args may be empty.
func (t *Tracer) writeEvent(header string, args []Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil || t.closed {
		return
	}
	if t.events > 0 {
		t.w.WriteByte(',')
	}
	t.w.WriteString("\n{")
	t.w.WriteString(header)
	if len(args) > 0 {
		t.w.WriteString(",\"args\":{")
		for i, a := range args {
			if i > 0 {
				t.w.WriteByte(',')
			}
			t.w.WriteString(strconv.Quote(a.key))
			t.w.WriteByte(':')
			if a.isStr {
				t.w.WriteString(strconv.Quote(a.str))
			} else {
				t.w.WriteString(strconv.FormatFloat(a.num, 'g', -1, 64))
			}
		}
		t.w.WriteByte('}')
	}
	_, t.err = t.w.WriteString("}")
	t.events++
}

// ProcessName labels a pid lane group (a metadata event).
func (t *Tracer) ProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.writeEvent(
		fmt.Sprintf("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0", pid),
		[]Arg{Str("name", name)})
}

// ThreadName labels one lane within a pid group (a metadata event).
func (t *Tracer) ThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.writeEvent(
		fmt.Sprintf("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d", pid, tid),
		[]Arg{Str("name", name)})
}

// Instant records a point event on a lane.
func (t *Tracer) Instant(pid, tid int, at des.Time, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.writeEvent(
		fmt.Sprintf("\"name\":%s,\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%s",
			strconv.Quote(name), pid, tid, ts(at)),
		args)
}

// Complete records a duration event [start, start+dur] on a lane.
func (t *Tracer) Complete(pid, tid int, start, dur des.Time, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.writeEvent(
		fmt.Sprintf("\"name\":%s,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s",
			strconv.Quote(name), pid, tid, ts(start), ts(dur)),
		args)
}

// Counter records counter-series values at a point in time; the viewer
// plots each named series as a track under the pid group.
func (t *Tracer) Counter(pid int, at des.Time, name string, series ...Arg) {
	if t == nil {
		return
	}
	t.writeEvent(
		fmt.Sprintf("\"name\":%s,\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"ts\":%s",
			strconv.Quote(name), pid, ts(at)),
		series)
}
