package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"fattree/internal/obs"
	"fattree/internal/schema"
)

// Sample is one tick of one probe series.
type Sample struct {
	T      int64 // picoseconds of simulated time
	Values []float64
}

// Series is the full time line of one probe.
type Series struct {
	Samples []Sample
}

// Width returns the widest value vector seen across the series'
// samples (probe vectors are fixed width in practice, but the parser
// does not assume it).
func (s *Series) Width() int {
	w := 0
	for _, sm := range s.Samples {
		if len(sm.Values) > w {
			w = len(sm.Values)
		}
	}
	return w
}

// ProbeData is a parsed -metrics JSONL stream: the probe series in
// first-seen order, the closing registry snapshot, and bookkeeping
// about lines that were not samples. Malformed lines (invalid JSON) are
// skipped and counted rather than failing the whole file — a truncated
// stream from a crashed run should still render a report.
type ProbeData struct {
	Schema    string
	Series    map[string]*Series
	Order     []string // series names in first-seen order
	Snapshot  *obs.Snapshot
	Rollup    *schema.LinkRollup // link contention rollup, when the stream carries one
	Records   int                // valid records of any kind
	Extra     int                // valid JSON lines of no kind listed above
	Malformed int                // lines that were not valid JSON
}

// probeLine is the union of every record kind a probe stream carries.
type probeLine struct {
	T        *int64        `json:"t_ps"`
	Series   string        `json:"series"`
	Values   []float64     `json:"values"`
	Schema   string        `json:"schema"`
	Snapshot *obs.Snapshot `json:"snapshot"`

	// The whole-record kind, its fields promoted into the line:
	// {"rollup":"links",...}.
	schema.LinkRollup
}

// ParseProbes reads a probe JSONL stream (the -metrics file written via
// obs.FileSinks). It returns an error only when the reader itself
// fails; content problems are reported through the Malformed counter so
// partial streams still yield partial data.
func ParseProbes(r io.Reader) (*ProbeData, error) {
	d := &ProbeData{Series: map[string]*Series{}}
	sc := bufio.NewScanner(r)
	// A 1944-host run emits ~4k values per sample line; give the
	// scanner room well beyond the default 64 KiB line cap.
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var p probeLine
		if err := json.Unmarshal(line, &p); err != nil {
			d.Malformed++
			continue
		}
		d.Records++
		switch {
		case p.Schema != "":
			d.Schema = p.Schema
		case p.Snapshot != nil:
			d.Snapshot = p.Snapshot
		case p.Rollup == schema.RollupLinks:
			d.Rollup = &p.LinkRollup
		case p.T != nil && p.Series != "":
			s, ok := d.Series[p.Series]
			if !ok {
				s = &Series{}
				d.Series[p.Series] = s
				d.Order = append(d.Order, p.Series)
			}
			s.Samples = append(s.Samples, Sample{T: *p.T, Values: p.Values})
		default:
			d.Extra++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: reading probe stream: %w", err)
	}
	return d, nil
}

// Get returns the named series, or nil.
func (d *ProbeData) Get(name string) *Series {
	if d == nil {
		return nil
	}
	return d.Series[name]
}
