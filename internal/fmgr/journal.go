package fmgr

import (
	"sync"
	"time"

	"fattree/internal/schema"
)

// The journal's record type, kinds and outcomes are internal/schema's;
// these three names stay because bench/ spells them this way.
const (
	EvReroute    = schema.EvReroute
	EvValidate   = schema.EvValidate
	OutcomeError = schema.OutcomeError
)

// Journal is a bounded in-memory ring of schema.Event records: the
// fabric manager's flight recorder. Writes never block and never grow memory
// past the capacity; once full, the oldest records fall off and the
// Dropped count says how many. Safe for concurrent use; the single
// writer is the manager's event loop but readers snapshot from request
// goroutines.
type Journal struct {
	mu   sync.Mutex
	buf  []schema.Event
	cap  int
	next uint64 // seq of the next record == total ever recorded
}

// NewJournal returns a ring holding at most capacity records
// (minimum 1).
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{buf: make([]schema.Event, 0, capacity), cap: capacity}
}

// Record appends the records in order, stamping Seq and, if unset, the
// wall-clock time. No-op on a nil journal.
func (j *Journal) Record(recs ...schema.Event) {
	if j == nil {
		return
	}
	now := time.Now().UnixNano()
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, rec := range recs {
		if rec.TimeUnixNS == 0 {
			rec.TimeUnixNS = now
		}
		rec.Seq = j.next
		j.next++
		if len(j.buf) < j.cap {
			j.buf = append(j.buf, rec)
		} else {
			j.buf[int(rec.Seq)%j.cap] = rec
		}
	}
}

// Snapshot returns up to n kept records, oldest first (n <= 0 means
// all), plus how many older records the ring has dropped.
func (j *Journal) Snapshot(n int) (recs []schema.Event, dropped uint64) {
	if j == nil {
		return nil, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	kept := len(j.buf)
	dropped = j.next - uint64(kept)
	if n <= 0 || n > kept {
		n = kept
	}
	recs = make([]schema.Event, 0, n)
	// Oldest kept record is seq j.next-kept at index (j.next-kept)%cap.
	for i := kept - n; i < kept; i++ {
		seq := j.next - uint64(kept) + uint64(i)
		if kept < j.cap {
			recs = append(recs, j.buf[i])
		} else {
			recs = append(recs, j.buf[int(seq)%j.cap])
		}
	}
	return recs, dropped
}

// SnapshotSince returns up to n kept records with Seq >= since, oldest
// first (n <= 0 means all), plus how many matching records the ring
// has already dropped — the incremental-polling companion to Snapshot.
// A poller passes its last seen seq + 1 and gets only what is new; a
// non-zero dropped return means it fell behind the ring.
func (j *Journal) SnapshotSince(since uint64, n int) (recs []schema.Event, dropped uint64) {
	if j == nil {
		return nil, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	kept := len(j.buf)
	oldest := j.next - uint64(kept) // seq of the oldest kept record
	if since > oldest {
		// Everything before `since` was dropped deliberately by the
		// caller, not by the ring.
		dropped = 0
	} else {
		dropped = oldest - since
	}
	if since < oldest {
		since = oldest
	}
	if since > j.next {
		since = j.next
	}
	match := int(j.next - since)
	if n <= 0 || n > match {
		n = match
	}
	recs = make([]schema.Event, 0, n)
	for seq := since; seq < since+uint64(n); seq++ {
		if kept < j.cap {
			recs = append(recs, j.buf[int(seq-oldest)])
		} else {
			recs = append(recs, j.buf[int(seq)%j.cap])
		}
	}
	return recs, dropped
}

// Len returns the number of kept records.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}
