package kv

import (
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"
)

// The request wrapper: every request passes through Server.ServeHTTP once,
// which owns one statusRecorder per request and applies, outermost first,
// metrics and logging, admission, and panic recovery around the route mux.
// Admission sits inside metrics, so a shed 503 is counted like any other
// 5xx; recovery sits innermost, so the 503 it writes for a panicking handler
// is counted, and logged when request logging is on.

// statusRecorder captures the response status for metrics and logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Metrics holds the server-level request counters surfaced by /stats. All
// fields are cumulative; latency is recorded as a running sum so the stats
// endpoint can report a true mean without histogram machinery (the load
// driver owns percentile measurement — see loadgen.go).
type Metrics struct {
	Requests     atomic.Uint64
	Errors4xx    atomic.Uint64
	Errors5xx    atomic.Uint64
	Panics       atomic.Uint64
	BytesWritten atomic.Uint64
	LatencyNs    atomic.Uint64
	// Sheds counts requests rejected by admission control (503 + Retry-After)
	// before reaching the engine; DeadlineHits counts admitted requests whose
	// store operation was abandoned with ErrDeadline.
	Sheds        atomic.Uint64
	DeadlineHits atomic.Uint64
}

// MetricsSnapshot is the JSON form of Metrics.
type MetricsSnapshot struct {
	Requests      uint64  `json:"requests"`
	Errors4xx     uint64  `json:"errors_4xx"`
	Errors5xx     uint64  `json:"errors_5xx"`
	Panics        uint64  `json:"panics"`
	BytesWritten  uint64  `json:"bytes_written"`
	MeanLatencyUs float64 `json:"mean_latency_us"`
	Sheds         uint64  `json:"sheds"`
	DeadlineHits  uint64  `json:"deadline_hits"`
}

// Snapshot returns a point-in-time copy.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Requests:     m.Requests.Load(),
		Errors4xx:    m.Errors4xx.Load(),
		Errors5xx:    m.Errors5xx.Load(),
		Panics:       m.Panics.Load(),
		BytesWritten: m.BytesWritten.Load(),
		Sheds:        m.Sheds.Load(),
		DeadlineHits: m.DeadlineHits.Load(),
	}
	if s.Requests > 0 {
		s.MeanLatencyUs = float64(m.LatencyNs.Load()) / float64(s.Requests) / 1e3
	}
	return s
}

// ServeHTTP implements http.Handler (httptest and embedding): the one
// request wrapper described above.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w}
	start := time.Now()
	sv.admitAndServe(rec, r)
	elapsed := time.Since(start)
	m := &sv.metrics
	m.Requests.Add(1)
	m.LatencyNs.Add(uint64(elapsed))
	m.BytesWritten.Add(uint64(rec.bytes))
	switch {
	case rec.status >= 500:
		m.Errors5xx.Add(1)
	case rec.status >= 400:
		m.Errors4xx.Add(1)
	}
	if sv.logf != nil {
		sv.logf("%s %s -> %d (%dB, %s)", r.Method, r.URL.Path, rec.status, rec.bytes, elapsed.Round(time.Microsecond))
	}
}

// admitAndServe sheds what the Governor refuses with 503 + Retry-After —
// except /healthz and /stats, the two endpoints an operator diagnosing an
// overloaded server needs — and runs everything else on the mux, converting
// a handler panic into a 503. On this engine the panic that matters is
// heap-arena exhaustion (htm's allocator panics rather than returning nil,
// mirroring a real allocator's abort-on-OOM); the store's pooled thread is
// returned by Store.withThread's defer, so the service keeps running — reads
// and deletes still succeed, and deletes free space.
func (sv *Server) admitAndServe(w http.ResponseWriter, r *http.Request) {
	if g := sv.governor; g != nil && r.URL.Path != "/healthz" && r.URL.Path != "/stats" && !g.Allow() {
		sv.metrics.Sheds.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(g.RetryAfterSeconds()))
		http.Error(w, "overloaded: retry later", http.StatusServiceUnavailable)
		return
	}
	defer func() {
		if p := recover(); p != nil {
			sv.metrics.Panics.Add(1)
			if sv.logf != nil {
				sv.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			}
			http.Error(w, "service unavailable", http.StatusServiceUnavailable)
		}
	}()
	sv.mux.ServeHTTP(w, r)
}
