package alert

import (
	"context"
	"encoding/json"
	"log/slog"
	"sync"

	"repro/internal/obs"
)

// NewLogSink returns a sink that emits one structured slog record per
// transition. With a nil logger the default slog logger is used; aqpd
// passes its JSON handler so alerts interleave with query events.
func NewLogSink(logger *slog.Logger) Sink {
	if logger == nil {
		logger = slog.Default()
	}
	return SinkFunc(func(ev Event) {
		level := slog.LevelWarn
		if ev.State == StateResolved {
			level = slog.LevelInfo
		} else if ev.Severity == SeverityCritical {
			level = slog.LevelError
		}
		attrs := []slog.Attr{
			slog.String("state", string(ev.State)),
			slog.String("source", ev.Source),
			slog.String("kind", ev.Kind),
			slog.String("key", ev.Key),
			slog.String("severity", string(ev.Severity)),
			slog.Int("count", ev.Count),
			slog.Float64("observed", ev.Observed),
			slog.Float64("expected", ev.Expected),
		}
		if ev.Message != "" {
			attrs = append(attrs, slog.String("message", ev.Message))
		}
		logger.LogAttrs(context.Background(), level, "alert", attrs...)
	})
}

// webhookQueue bounds pending webhook deliveries; overflow drops.
const webhookQueue = 64

// WebhookSink POSTs each transition as a JSON document to a generic
// endpoint, from its own goroutine with bounded queueing and the retries
// of obs.PostJSON — Notify never blocks the bus.
type WebhookSink struct {
	url string
	ch  chan Event
	wg  sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	mSent    *obs.Counter
	mDropped *obs.Counter
	mRetries *obs.Counter
}

// NewWebhookSink builds a webhook sink metered on reg (which may be nil)
// and starts its delivery worker.
func NewWebhookSink(url string, reg *obs.Registry) *WebhookSink {
	s := &WebhookSink{url: url, ch: make(chan Event, webhookQueue)}
	s.mSent = reg.Counter("aqp_alert_webhook_total",
		"Alert webhook deliveries, by result.", "result", "ok")
	s.mDropped = reg.Counter("aqp_alert_webhook_total",
		"Alert webhook deliveries, by result.", "result", "dropped")
	s.mRetries = reg.Counter("aqp_alert_webhook_retries_total",
		"Webhook POST attempts retried after a failure.")
	s.wg.Add(1)
	go s.worker()
	return s
}

// Notify implements Sink: a non-blocking enqueue.
func (s *WebhookSink) Notify(ev Event) {
	if s == nil {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.mDropped.Inc()
		return
	}
	select {
	case s.ch <- ev:
	default:
		s.mDropped.Inc()
	}
}

// Close drains pending deliveries and stops the worker.
func (s *WebhookSink) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.ch)
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *WebhookSink) worker() {
	defer s.wg.Done()
	for ev := range s.ch {
		if s.deliver(ev) {
			s.mSent.Inc()
		} else {
			s.mDropped.Inc()
		}
	}
}

func (s *WebhookSink) deliver(ev Event) bool {
	body, err := json.Marshal(ev)
	return err == nil && obs.PostJSON(s.url, body, s.mRetries)
}
