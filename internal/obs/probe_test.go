package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fattree/internal/des"
)

func decodeSamples(t *testing.T, raw string) []sampleRecord {
	t.Helper()
	var recs []sampleRecord
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		if line == "" {
			continue
		}
		var r sampleRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	return recs
}

// runWork drains sched, calling work for each dispatch event; the
// sampler's daemon ticks run inside NextEvent.
func runWork(sched *des.Scheduler, work func()) {
	for {
		if _, _, _, _, ok := sched.NextEvent(); !ok {
			return
		}
		work()
	}
}

// TestSamplerTicksWithScheduler runs a sampler against a scheduler that
// has work spanning 10 us and checks the tick cadence, the values and
// that the sampler stops when the simulation drains.
func TestSamplerTicksWithScheduler(t *testing.T) {
	sched := des.NewScheduler()
	var buf bytes.Buffer
	s := NewSampler(&buf, 2*des.Microsecond)
	state := 0.0
	// Simulated work: a dispatch event every microsecond for 10 us,
	// each mutating state; the sampler should see the running value.
	for i := 1; i <= 10; i++ {
		sched.AtEvent(des.Time(i)*des.Microsecond, 0, 0, 0, 0)
	}
	s.Series("state", func(now des.Time, buf []float64) []float64 {
		return append(buf, state)
	})
	s.Series("pair", func(now des.Time, buf []float64) []float64 {
		return append(buf, 1, 2)
	})
	s.Start(sched)
	runWork(sched, func() { state++ })
	// Ticks at 0,2,4,6,8 us; the daemon tick armed for 10 us is
	// discarded once the last work event has run. The owner closes the
	// stream with one explicit end-of-run sample.
	s.Sample(sched.Now())
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := decodeSamples(t, buf.String())
	// Five ticks plus the final sample, two series each.
	if len(recs) != 12 {
		t.Fatalf("got %d records, want 12:\n%s", len(recs), buf.String())
	}
	if recs[0].T != 0 || recs[0].Series != "state" || recs[0].Values[0] != 0 {
		t.Errorf("first record = %+v", recs[0])
	}
	last := recs[len(recs)-2]
	if last.T != int64(10*des.Microsecond) || last.Values[0] != 10 {
		t.Errorf("final sample = %+v, want state 10 at t=10us", last)
	}
	if recs[len(recs)-1].Series != "pair" || len(recs[len(recs)-1].Values) != 2 {
		t.Errorf("vector series record = %+v", recs[len(recs)-1])
	}
	// The scheduler must be fully drained — the sampler may not keep
	// re-arming after the simulation finished.
	if sched.Pending() != 0 {
		t.Errorf("%d events still pending after run", sched.Pending())
	}
}

func TestSamplerStopsOnEmptySchedule(t *testing.T) {
	sched := des.NewScheduler()
	var buf bytes.Buffer
	s := NewSampler(&buf, des.Microsecond)
	s.Series("x", func(now des.Time, b []float64) []float64 { return append(b, 1) })
	s.Start(sched) // nothing pending: samples once, must not re-arm
	if sched.Pending() != 0 {
		t.Fatalf("sampler armed %d events on an idle scheduler", sched.Pending())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if recs := decodeSamples(t, buf.String()); len(recs) != 1 {
		t.Errorf("got %d records, want 1", len(recs))
	}
}

func TestSamplerRecordAndReset(t *testing.T) {
	var buf bytes.Buffer
	s := NewSampler(&buf, 0) // non-positive interval defaults to 1 us
	if s.interval != des.Microsecond {
		t.Errorf("interval = %v", s.interval)
	}
	s.Series("x", func(now des.Time, b []float64) []float64 { return append(b, 1) })
	s.Reset() // drops the series
	sched := des.NewScheduler()
	sched.AtEvent(1, 0, 0, 0, 0)
	s.Start(sched)
	runWork(sched, func() {})
	s.Record(map[string]string{"series": "snapshot", "kind": "final"})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want only the Record line:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "snapshot") {
		t.Errorf("record line = %q", lines[0])
	}
}
