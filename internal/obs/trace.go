package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Structured tracing: spans with a name, start/end timestamps, attributes,
// a process-unique ID and a parent ID. Completed spans land in a fixed-size
// ring buffer; the exporter drains the ring as JSON lines (one span per
// line), which is what cmd/cspd's /trace endpoint and csolve's -trace flag
// serve.
//
// Spans deliberately do not try to be OpenTelemetry: there is no sampling,
// no propagation format, and attribute values are int64 or string only. The
// point is to record solver search trees, join-plan decisions, GAC revision
// waves and Yannakakis passes with parent-correct nesting at near-zero cost.

// Attr is one span attribute. Exactly one of Int/Str is meaningful; Str
// wins when nonempty.
type Attr struct {
	Key string `json:"k"`
	Int int64  `json:"v,omitempty"`
	Str string `json:"s,omitempty"`
}

// SpanRecord is the exported (completed) form of a span.
type SpanRecord struct {
	TraceID string `json:"trace_id,omitempty"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Span is an in-flight span. A nil *Span is a valid no-op span: every method
// checks the receiver, so instrumentation sites never branch on tracing
// state beyond the Start call that produced the span.
type Span struct {
	tr  *Tracer
	rec SpanRecord
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Int: v})
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Str: v})
}

// ID returns the span's process-unique id (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// TraceID returns the trace the span belongs to ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.TraceID
}

// End stamps the span's end time and commits it to the tracer's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.EndNs = time.Now().UnixNano()
	s.tr.push(s.rec)
}

// Tracer owns the span id allocator and the completed-span ring buffer.
type Tracer struct {
	ring[SpanRecord]
	ids atomic.Uint64
}

// NewTracer returns a tracer whose ring holds up to capacity completed
// spans; older spans are overwritten once the ring is full (and counted in
// Dropped).
func NewTracer(capacity int) *Tracer {
	t := &Tracer{}
	t.init(capacity)
	return t
}

// defaultTracerCap bounds the default ring: 16384 spans ≈ a few MB, enough
// for a full MAC solve trace of a mid-size instance.
const defaultTracerCap = 16384

var defaultTracer = NewTracer(defaultTracerCap)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// SetTracing turns span recording on the default tracer on or off.
func SetTracing(v bool) { defaultTracer.SetActive(v) }

// Tracing reports whether the default tracer is recording.
func Tracing() bool { return defaultTracer.Active() }

// StartRoot begins a new root span under the given trace id. Returns nil
// (the no-op span) when the tracer is inactive.
func (t *Tracer) StartRoot(name, traceID string) *Span {
	if t == nil || !t.active.Load() {
		return nil
	}
	return &Span{tr: t, rec: SpanRecord{
		TraceID: traceID,
		ID:      t.ids.Add(1),
		Name:    name,
		StartNs: time.Now().UnixNano(),
	}}
}

// StartChild begins a span under parent, inheriting its trace id. A nil
// parent yields a root span with no trace id. Returns nil when inactive.
func (t *Tracer) StartChild(parent *Span, name string) *Span {
	if t == nil || !t.active.Load() {
		return nil
	}
	sp := &Span{tr: t, rec: SpanRecord{
		ID:      t.ids.Add(1),
		Name:    name,
		StartNs: time.Now().UnixNano(),
	}}
	if parent != nil {
		sp.rec.TraceID = parent.rec.TraceID
		sp.rec.Parent = parent.rec.ID
	}
	return sp
}

// StartRoot begins a root span on the default tracer.
func StartRoot(name, traceID string) *Span { return defaultTracer.StartRoot(name, traceID) }

// StartChild begins a child span on the default tracer.
func StartChild(parent *Span, name string) *Span { return defaultTracer.StartChild(parent, name) }

// spanKey carries the current span through a context.
type spanKey struct{}

// WithSpan returns a context carrying s as the current span. A nil span
// returns ctx unchanged.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the current span of the context, or nil. A nil context
// is accepted (some kernel paths pass nil for "no cancellation").
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan begins a child of ctx's current span on the default tracer and
// returns a context carrying the new span. When tracing is off it returns
// ctx unchanged and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := defaultTracer.StartChild(SpanFrom(ctx), name)
	return WithSpan(ctx, sp), sp
}
