package obs

import (
	"context"
	"sync/atomic"
)

// Span outcomes. Instrumented packages may also record their own short
// outcome classes (e.g. "noplan", "fallback") — anything content-derived
// keeps snapshots deterministic.
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
)

// ErrOutcome classifies an error into the standard outcomes: OutcomeOK for
// nil, OutcomeError otherwise. Packages with richer error taxonomies (the
// steering pipeline knows no-plan from injected faults) classify themselves.
func ErrOutcome(err error) string {
	if err == nil {
		return OutcomeOK
	}
	return OutcomeError
}

// ctxKey keys the active span in a context.
type ctxKey struct{}

// Span is one in-flight stage of work. Spans nest via context: StartSpan
// stores the new span in the returned context, and children started from
// that context record the parent's content-keyed path. End records the span
// into the registry; a span may be ended at most once (later Ends no-op).
//
// Durations come from the registry clock, so they are the only
// schedule-dependent field — under FrozenClock they are all zero and the
// span set serializes byte-identically at any worker count (stage, tag and
// parent path are content identifiers, never goroutine or completion order).
type Span struct {
	reg     *Registry
	stage   string
	tag     string
	path    string
	parent  string
	startNs int64
	ended   atomic.Bool
}

// StartSpan opens a span for one stage of work. tag is a content identifier
// (job ID, candidate index) — never anything schedule-derived. The returned
// context carries the span so nested StartSpan calls chain parent paths. On
// a nil registry it returns ctx unchanged and a nil span.
func (r *Registry) StartSpan(ctx context.Context, stage, tag string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	s := &Span{reg: r, stage: stage, tag: tag, startNs: r.now().UnixNano()}
	if parent, ok := ctx.Value(ctxKey{}).(*Span); ok && parent != nil {
		s.parent = parent.path
	}
	s.path = joinPath(s.parent, stage, tag)
	return context.WithValue(ctx, ctxKey{}, s), s
}

// End completes the span with the given outcome and records it. Safe on a
// nil span; only the first End records.
func (s *Span) End(outcome string) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	p := SpanPoint{
		Path:       s.path,
		Stage:      s.stage,
		Tag:        s.tag,
		Parent:     s.parent,
		Outcome:    outcome,
		DurationNs: s.reg.now().UnixNano() - s.startNs,
	}
	s.reg.mu.Lock()
	s.reg.spans = append(s.reg.spans, p)
	s.reg.mu.Unlock()
}

// EndErr completes the span with ErrOutcome(err).
func (s *Span) EndErr(err error) { s.End(ErrOutcome(err)) }

// joinPath builds the content-keyed span path "parent/stage(tag)".
func joinPath(parent, stage, tag string) string {
	n := len(stage)
	if parent != "" {
		n += len(parent) + 1
	}
	if tag != "" {
		n += len(tag) + 2
	}
	b := make([]byte, 0, n)
	if parent != "" {
		b = append(b, parent...)
		b = append(b, '/')
	}
	b = append(b, stage...)
	if tag != "" {
		b = append(b, '(')
		b = append(b, tag...)
		b = append(b, ')')
	}
	return string(b)
}
