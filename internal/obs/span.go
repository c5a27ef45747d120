package obs

import (
	"strconv"
	"sync/atomic"
	"time"

	"fattree/internal/des"
)

// SpanTracer is a lightweight distributed-tracing facade over the
// Chrome trace-event Tracer: spans carry a trace ID, a span ID and a
// parent link, and serialize as ph:"X" duration events, so a daemon's
// request traces open in chrome://tracing / Perfetto exactly like the
// simulator's packet traces. Wall-clock time is mapped onto the trace's
// microsecond axis relative to the tracer's start.
//
// All methods are nil-safe: a nil *SpanTracer starts nil *Spans whose
// methods (Child, Tag, End) are no-ops, so instrumented code pays one
// nil check when tracing is off — the same contract as the rest of this
// package.
type SpanTracer struct {
	tr    *Tracer
	pid   int
	epoch time.Time
	ids   atomic.Uint64
}

// NewSpanTracer labels lane group pid on tr and returns the span
// factory. Nil tr yields a nil tracer.
func NewSpanTracer(tr *Tracer, pid int, name string) *SpanTracer {
	if tr == nil {
		return nil
	}
	tr.ProcessName(pid, name)
	return &SpanTracer{tr: tr, pid: pid, epoch: time.Now()}
}

// now maps wall time onto the trace clock (des.Time picoseconds).
func (st *SpanTracer) now() des.Time {
	return des.Time(time.Since(st.epoch).Nanoseconds()) * des.Nanosecond
}

// Span is one open span. End it exactly once; children must end before
// (or at least render sensibly when nested within) their parent.
type Span struct {
	st     *SpanTracer
	trace  uint64
	id     uint64
	parent uint64
	name   string
	start  des.Time
	args   []Arg
}

// StartTrace opens a root span under a fresh trace ID. Nil-safe.
func (st *SpanTracer) StartTrace(name string) *Span {
	if st == nil {
		return nil
	}
	id := st.ids.Add(1)
	return &Span{st: st, trace: id, id: id, name: name, start: st.now()}
}

// Child opens a sub-span sharing the receiver's trace ID. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		st:     s.st,
		trace:  s.trace,
		id:     s.st.ids.Add(1),
		parent: s.id,
		name:   name,
		start:  s.st.now(),
	}
}

// Tag attaches arguments rendered into the span's args object at End.
// Nil-safe.
func (s *Span) Tag(args ...Arg) {
	if s == nil {
		return
	}
	s.args = append(s.args, args...)
}

// TagStr attaches one string argument. Unlike the variadic Tag it
// reserves no argument array in the caller's frame, so per-request
// handlers can annotate spans without inflating their stack frames
// (each variadic site costs sizeof(Arg) of caller stack even when the
// span is nil). Nil-safe.
func (s *Span) TagStr(key, val string) {
	if s == nil {
		return
	}
	s.args = append(s.args, Str(key, val))
}

// TagNum attaches one number argument; see TagStr for why this exists
// alongside Tag. Nil-safe.
func (s *Span) TagNum(key string, val float64) {
	if s == nil {
		return
	}
	s.args = append(s.args, Num(key, val))
}

// End closes the span, emitting one complete event on the tracer. All
// spans of one trace share a tid lane, so a request's spans nest
// visually; different traces spread across lanes. Nil-safe, and
// idempotence is not required of callers — End on an already-ended span
// would emit a duplicate, so call it once (defer is the intended use).
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.st.now()
	dur := end - s.start
	if dur < 0 {
		dur = 0
	}
	args := make([]Arg, 0, len(s.args)+3)
	args = append(args,
		Str("trace_id", strconv.FormatUint(s.trace, 16)),
		Str("span_id", strconv.FormatUint(s.id, 16)))
	if s.parent != 0 {
		args = append(args, Str("parent_id", strconv.FormatUint(s.parent, 16)))
	}
	args = append(args, s.args...)
	s.st.tr.Complete(s.st.pid, int(s.trace%64), s.start, dur, s.name, args...)
}
