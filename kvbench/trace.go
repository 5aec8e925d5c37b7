package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/kv/wal"
)

// Tracing records spans only in this benchmark's code, around the calls it
// makes into each layer: the client request (an HTTP round trip or a direct
// Store call), kv.Server.ServeHTTP through an http.Handler wrapper, and the
// WAL's Write/Sync through a wal.FS wrapper. A traced run alternates
// untraced and traced windows on one server, so the throughput of the two
// kinds of window gives the tracing overhead.

type spanKind uint8

const (
	spanClient spanKind = iota
	spanHandler
	spanWalWrite
	spanWalSync
	spanSnapWrite
	spanSnapSync
)

var spanNames = [...]string{"client", "handler", "wal.write", "wal.sync", "snapshot.write", "snapshot.sync"}

const nSpanKinds = len(spanNames)

// span is one timed call. Spans of one request share id (the handler span's
// parent is the client span with the same id); WAL spans serve a group
// commit rather than one request and carry id 0.
type span struct {
	id         uint64
	kind       spanKind
	op         uint8
	start, end int64 // ns since the tracer's origin
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// maxSpans caps each span buffer; the rest are counted as dropped. Only the
// client/handler pairing behind kv.server.transport_p50_us and
// handler_share is limited to the stored spans; every other span figure is
// aggregated as the spans are recorded.
const maxSpans = 1 << 16

// spanHeader carries the client span id to the handler wrapper.
const spanHeader = "X-Kvbench-Span"

type tracer struct {
	origin time.Time
	// The measured period and window length, in ns since origin. Set once
	// setup is done, while server goroutines already run, hence atomic.
	t0, end, win atomic.Int64

	mu      sync.Mutex
	shared  []span           // handler and file spans, from server goroutines
	byKind  [nSpanKinds]hist // durations of every span recorded, stored or not
	dropped atomic.Int64

	// Snapshot files written in the measured period, and their bytes.
	snapFiles, snapBytes atomic.Int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (tr *tracer) ns(t time.Time) int64 { return int64(t.Sub(tr.origin)) }

func (tr *tracer) schedule(t0 time.Time, win time.Duration, windows int) {
	tr.win.Store(int64(win))
	tr.t0.Store(tr.ns(t0))
	tr.end.Store(tr.ns(t0.Add(time.Duration(windows) * win))) // last: opens the period
}

// measuring reports whether t falls in the measured period.
func (tr *tracer) measuring(t time.Time) bool {
	if tr == nil {
		return false
	}
	n := tr.ns(t)
	return n >= tr.t0.Load() && n < tr.end.Load()
}

// on reports whether t falls in a traced (odd) window of the measured period.
func (tr *tracer) on(t time.Time) bool {
	return tr.measuring(t) && (tr.ns(t)-tr.t0.Load())/tr.win.Load()%2 == 1
}

func (tr *tracer) record(s span) {
	tr.mu.Lock()
	tr.byKind[s.kind].add(s.dur())
	if len(tr.shared) < maxSpans {
		tr.shared = append(tr.shared, s)
	} else {
		tr.dropped.Add(1)
	}
	tr.mu.Unlock()
}

// tracedHandler times kv.Server.ServeHTTP for requests that carry a span id.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hdr := r.Header.Get(spanHeader)
	if hdr == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	id, _ := strconv.ParseUint(hdr, 10, 64) // the benchmark's own client wrote it
	h.tr.record(span{id: id, kind: spanHandler, start: h.tr.ns(start), end: h.tr.ns(end)})
}

// tracedFS times Write and Sync on the WAL's segment and snapshot files.
type tracedFS struct {
	wal.FS
	tr *tracer
}

func (f tracedFS) OpenAppend(name string) (wal.File, error) {
	file, err := f.FS.OpenAppend(name)
	return f.wrap(name, file), err
}

func (f tracedFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err == nil && strings.HasSuffix(name, ".snap.tmp") && f.tr.measuring(time.Now()) {
		f.tr.snapFiles.Add(1)
	}
	return f.wrap(name, file), err
}

func (f tracedFS) wrap(name string, file wal.File) wal.File {
	if file == nil {
		return nil
	}
	switch {
	case strings.HasSuffix(name, ".seg"):
		return tracedFile{File: file, tr: f.tr, write: spanWalWrite, sync: spanWalSync}
	case strings.HasSuffix(name, ".snap.tmp"):
		return tracedFile{File: file, tr: f.tr, write: spanSnapWrite, sync: spanSnapSync}
	}
	return file
}

type tracedFile struct {
	wal.File
	tr          *tracer
	write, sync spanKind
}

func (f tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.timed(f.write, start)
	if f.write == spanSnapWrite && f.tr.measuring(start) {
		f.tr.snapBytes.Add(int64(n))
	}
	return n, err
}

func (f tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.timed(f.sync, start)
	return err
}

func (f tracedFile) timed(kind spanKind, start time.Time) {
	if f.tr.on(start) {
		f.tr.record(span{kind: kind, start: f.tr.ns(start), end: f.tr.ns(time.Now())})
	}
}

// writeTrace writes every stored span as one JSON object per line.
func writeTrace(path string, groups ...[]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, g := range groups {
		for _, s := range g {
			name := spanNames[s.kind]
			if s.kind == spanClient {
				name += "." + opNames[s.op]
			}
			fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", s.id, name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
