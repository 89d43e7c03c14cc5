package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// record is what a ring holds: a completed span or a wide event, each of
// which names the trace it belongs to.
type record interface {
	traceID() string
}

func (r SpanRecord) traceID() string { return r.TraceID }
func (e SolveEvent) traceID() string { return e.TraceID }

// ring is the drain-or-lose buffer behind both the span Tracer and the
// EventRing, which have the same shape on purpose: one atomic activity bit,
// a fixed slot array overwritten oldest-first once full (each overwrite
// counted in Dropped), and an optional sink that streams every pushed record
// as one JSON line. Callers gate on active themselves, so an inactive record
// costs one atomic load.
type ring[T record] struct {
	active  atomic.Bool
	dropped atomic.Int64

	mu   sync.Mutex
	buf  []T
	next int  // write position
	full bool // the ring has wrapped at least once
	sink *bufio.Writer
}

// init sizes the slot array; capacity is at least 1.
func (r *ring[T]) init(capacity int) {
	r.buf = make([]T, max(capacity, 1))
}

// SetActive turns recording on or off.
func (r *ring[T]) SetActive(v bool) { r.active.Store(v) }

// Active reports whether the ring is recording.
func (r *ring[T]) Active() bool { return r.active.Load() }

// Dropped returns the number of records overwritten before being drained.
func (r *ring[T]) Dropped() int64 { return r.dropped.Load() }

// SetSink attaches a writer that additionally receives every pushed record
// as one compact JSON line, independent of drains. A nil writer detaches the
// sink (flushing first). The ring serializes sink writes under its mutex.
func (r *ring[T]) SetSink(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink != nil {
		r.sink.Flush()
	}
	if w == nil {
		r.sink = nil
		return
	}
	r.sink = bufio.NewWriter(w)
}

// FlushSink flushes any buffered sink bytes (a no-op without a sink).
func (r *ring[T]) FlushSink() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink != nil {
		r.sink.Flush()
	}
}

// push commits one record to its slot (and the sink, when attached). The
// sink encodes the slot, not the argument, so v never escapes to the heap.
func (r *ring[T]) push(v T) {
	r.mu.Lock()
	if r.full {
		r.dropped.Add(1)
	}
	slot := r.next
	r.buf[slot] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	if r.sink != nil {
		_ = json.NewEncoder(r.sink).Encode(&r.buf[slot])
	}
	r.mu.Unlock()
}

// Drain returns the buffered records in commit order and clears the ring.
func (r *ring[T]) Drain() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []T
	if r.full {
		out = make([]T, 0, len(r.buf))
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf[:r.next]...)
	}
	// Clear so drained records are not retained by the ring.
	clear(r.buf)
	r.next = 0
	r.full = false
	return out
}

// DrainTrace drains the ring and keeps only the records of one trace; an
// empty traceID keeps everything. The rest are discarded with the drain, in
// keeping with the drain-or-lose contract of the /trace and /events
// endpoints.
func (r *ring[T]) DrainTrace(traceID string) []T {
	recs := r.Drain()
	if traceID == "" {
		return recs
	}
	kept := recs[:0]
	for _, rec := range recs {
		if rec.traceID() == traceID {
			kept = append(kept, rec)
		}
	}
	return kept
}

// WriteJSONL writes one record per line as compact JSON.
func WriteJSONL[T record](w io.Writer, recs []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
