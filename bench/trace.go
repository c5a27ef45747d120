package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// layerBench tags spans that are the benchmark's own bookkeeping (the
// operation roots), as opposed to time spent inside a layer's public
// functions.
const layerBench = "bench"

// span is one timed interval at a layer boundary: which layer's public
// function ran, when, under which parent span, for which operation.
type span struct {
	Layer  string
	Name   string
	Start  time.Duration // since the recorder was created
	End    time.Duration
	Parent int // index into the lane's spans, -1 for a root
	Op     int // operation (iteration / request / fault) identifier
}

// lane is one goroutine's span list. Spans of a lane nest by stack
// discipline, so no lock is needed while recording. A nil lane records
// nothing: that is what "tracing off" means.
type lane struct {
	rec   *recorder
	name  string
	spans []span
	stack []int
}

// recorder keeps every lane in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*lane
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// lane opens a new lane; nil on a nil recorder.
func (r *recorder) lane(name string) *lane {
	if r == nil {
		return nil
	}
	l := &lane{rec: r, name: name}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// begin opens a span under the lane's innermost open span and returns
// its index for end.
func (l *lane) begin(layer, name string, op int) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.spans = append(l.spans, span{Layer: layer, Name: name, Parent: parent, Op: op, Start: time.Since(l.rec.t0)})
	id := len(l.spans) - 1
	l.stack = append(l.stack, id)
	return id
}

// end closes the span begin returned; spans must close innermost first.
func (l *lane) end(id int) {
	if l == nil {
		return
	}
	l.spans[id].End = time.Since(l.rec.t0)
	l.stack = l.stack[:len(l.stack)-1]
}

// add records a span whose interval was measured elsewhere (work inside
// the daemon's event loop, seen only through timestamps), as a child of
// parent (-1 for a root). It returns the new span's index.
func (l *lane) add(layer, name string, op, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Layer: layer, Name: name, Parent: parent, Op: op,
		Start: start.Sub(l.rec.t0), End: end.Sub(l.rec.t0)})
	return len(l.spans) - 1
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part its direct children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if r == nil {
		return out
	}
	for _, l := range r.lanes {
		child := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range l.spans {
			out[s.Layer] += s.End - s.Start - child[i]
		}
	}
	return out
}

// layerCover returns the share (0..100) of the operation roots' wall
// time that the spans of real layers account for.
func (r *recorder) layerCover() float64 {
	self := r.selfTimes()
	var total, layers time.Duration
	for layer, d := range self {
		total += d
		if layer != layerBench {
			layers += d
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(layers) / float64(total)
}

// numSpans returns the recorded span count.
func (r *recorder) numSpans() int {
	n := 0
	for _, l := range r.lanes {
		n += len(l.spans)
	}
	return n
}

// dump writes the spans as Chrome trace-event JSON (open in Perfetto or
// chrome://tracing): one "X" event per span, one thread per lane.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	enc := json.NewEncoder(w)
	first := true
	emit := func(e event) error {
		if first {
			first = false
		} else if _, err := w.WriteString(","); err != nil {
			return err
		}
		return enc.Encode(e)
	}
	write := func() error {
		if _, err := w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
			return err
		}
		for tid, l := range r.lanes {
			if err := emit(event{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": l.name}}); err != nil {
				return err
			}
			for id, s := range l.spans {
				if err := emit(event{
					Name: s.Name, Cat: s.Layer, Ph: "X", PID: 1, TID: tid,
					TS:   float64(s.Start.Nanoseconds()) / 1e3,
					Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
					Args: map[string]any{"id": id, "parent": s.Parent, "op": s.Op},
				}); err != nil {
					return err
				}
			}
		}
		if _, err := w.WriteString("]}\n"); err != nil {
			return err
		}
		return w.Flush()
	}
	if err := write(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
