package obsv

import "context"

type spanCtxKeyType struct{}

// spanCtxKey is a pointer, not a struct value: ctx.Value takes an
// interface, and a pointer-shaped key keeps the lookup boxing-free on
// hot request paths (tipsyd's TestPredictHandlerAllocs pins what
// handlePredict allocates).
var spanCtxKey = &spanCtxKeyType{}

// ContextWithSpan returns ctx carrying s. A nil span returns ctx
// unchanged, so code running without a tracer adds no context layer.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey, s)
}

// SpanFromContext returns the span carried by ctx, or nil — and nil
// composes: every Span method and Tracer.StartChild accept it.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey).(*Span)
	return s
}
