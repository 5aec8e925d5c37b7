package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/htm"
	"repro/kv"
	"repro/kv/wal"
)

// snapshot holds the cumulative counters of every layer at one instant.
type snapshot struct {
	heap                 htm.Stats
	ops                  kv.Counters
	wal                  wal.Stats
	snaps                uint64
	http                 kv.MetricsSnapshot
	jobs                 kv.JobStats
	goBytes, goObjs, gcs uint64
}

func (f *fixture) snapshot() (snapshot, error) {
	s := snapshot{heap: f.store.Heap().Stats(), ops: f.store.OpCounters(), snaps: f.store.Snapshots()}
	s.wal, _ = f.store.WalStats()
	if f.base != "" {
		resp, err := f.admin.Get(f.base + "/stats")
		if err != nil {
			return s, err
		}
		var st struct {
			HTTP kv.MetricsSnapshot `json:"http"`
			Jobs *kv.JobStats       `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return s, fmt.Errorf("GET /stats: %w", err)
		}
		s.http = st.HTTP
		if st.Jobs != nil {
			s.jobs = *st.Jobs
		}
	}
	rm := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rm)
	s.goBytes, s.goObjs, s.gcs = rm[0].Value.Uint64(), rm[1].Value.Uint64(), rm[2].Value.Uint64()
	return s, nil
}

// samplePool samples the store's pool occupancy every millisecond of the
// traced windows; the returned function stops the sampler and returns the
// mean (0 for an untraced run).
func samplePool(s *kv.Store, tr *tracer) func() float64 {
	if tr == nil {
		return func() float64 { return 0 }
	}
	done := make(chan struct{})
	var sum float64
	var n int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				if tr.on(now) {
					sum += float64(s.InFlight()) / float64(s.PoolSize())
					n++
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return sum / float64(max(n, 1))
	}
}

type layerInput struct {
	f               *fixture
	before, after   snapshot
	heapEnd         htm.Stats
	lenEnd, tombEnd int
	occupancy       float64
	tr              *tracer
	win             time.Duration
	recoverySecs    float64
	recoveryRecords uint64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func layerMetrics(in layerInput) map[string]float64 {
	b, a := in.before, in.after
	d := func(x, y uint64) float64 { return float64(y - x) }
	var clientOps, userBytes float64
	for _, c := range in.f.clients {
		for _, w := range c.windows {
			clientOps += float64(w.ops)
			userBytes += float64(w.userBytes)
		}
	}
	storeOps := d(b.ops.Gets+b.ops.Puts+b.ops.Deletes+b.ops.Scans, a.ops.Gets+a.ops.Puts+a.ops.Deletes+a.ops.Scans)
	starts, commits := d(b.heap.Starts, a.heap.Starts), d(b.heap.Commits, a.heap.Commits)
	abort := func(code htm.AbortCode) float64 { return d(b.heap.Aborts[code], a.heap.Aborts[code]) }
	appends, syncs := d(b.wal.Appends, a.wal.Appends), d(b.wal.Syncs, a.wal.Syncs)
	snaps := d(b.snaps, a.snaps)
	m := map[string]float64{
		"kv.server.resp_bytes_per_op": ratio(d(b.http.BytesWritten, a.http.BytesWritten), d(b.http.Requests, a.http.Requests)),
		"kv.server.errors_5xx":        d(b.http.Errors5xx, a.http.Errors5xx),
		"kv.server.sheds":             d(b.http.Sheds, a.http.Sheds),
		"kv.store.ops":                storeOps,
		"kv.store.deadline_hits":      d(b.ops.Deadlines, a.ops.Deadlines),
		"kv.store.pool_occupancy":     in.occupancy,
		"kv.store.len_end":            float64(in.lenEnd),
		"kv.store.tombstones_end":     float64(in.tombEnd),
		"htm.starts":                  starts,
		"htm.commits":                 commits,
		"htm.commit_ratio":            ratio(commits, starts),
		"htm.starts_per_store_op":     ratio(starts, storeOps),
		"htm.aborts.conflict":         abort(htm.AbortConflict),
		"htm.aborts.illegal":          abort(htm.AbortIllegal),
		"htm.aborts.capacity":         abort(htm.AbortCapacity),
		"htm.aborts.overflow":         abort(htm.AbortOverflow),
		"htm.aborts.fallback":         abort(htm.AbortFallback),
		"htm.fallback_runs":           d(b.heap.FallbackRuns, a.heap.FallbackRuns),
		"htm.fallback_waits":          d(b.heap.FallbackWaits, a.heap.FallbackWaits),
		"htm.fallback_retries":        d(b.heap.FallbackRetries, a.heap.FallbackRetries),
		"htm.alloc_calls":             d(b.heap.AllocCalls, a.heap.AllocCalls),
		"htm.free_calls":              d(b.heap.FreeCalls, a.heap.FreeCalls),
		"htm.live_bytes_end":          float64(in.heapEnd.LiveWords * 8),
		"htm.max_live_bytes":          float64(a.heap.MaxLiveWords * 8),
		"kv.wal.appends":              appends,
		"kv.wal.syncs":                syncs,
		"kv.wal.appends_per_sync":     ratio(appends, syncs),
		"kv.wal.bytes_per_user_byte":  ratio(d(b.wal.Bytes, a.wal.Bytes), userBytes),
		"kv.wal.snapshots":            snaps,
		"kv.wal.rotations":            d(b.wal.Rotations, a.wal.Rotations),
		"kv.wal.recovery_records":     float64(in.recoveryRecords),
		"kv.wal.recovery_s":           in.recoverySecs,
		"kv.jobs.sweeps":              d(b.jobs.Sweeps, a.jobs.Sweeps),
		"kv.jobs.jobs_run":            d(b.jobs.JobsRun, a.jobs.JobsRun),
		"kv.jobs.tombstones_cleared":  d(b.jobs.Cleared, a.jobs.Cleared),
		"go.alloc_bytes_per_op":       ratio(d(b.goBytes, a.goBytes), clientOps),
		"go.allocs_per_op":            ratio(d(b.goObjs, a.goObjs), clientOps),
		"go.gc_cycles":                d(b.gcs, a.gcs),
	}
	if in.tr == nil {
		return m
	}

	// Span-derived figures, from the traced windows.
	handlerByID := map[uint64]time.Duration{}
	for _, s := range in.tr.shared {
		if s.kind == spanHandler {
			handlerByID[s.id] = s.dur()
		}
	}
	var transport hist
	var inHandler, inClient time.Duration
	for _, c := range in.f.clients {
		for _, s := range c.spans {
			if h, ok := handlerByID[s.id]; ok {
				transport.add(s.dur() - h)
				inHandler += h
				inClient += s.dur()
			}
		}
	}
	handler, walSync, walWrite := &in.tr.byKind[spanHandler], &in.tr.byKind[spanWalSync], &in.tr.byKind[spanWalWrite]
	tracedWall := time.Duration(len(in.f.clients[0].windows)/2) * in.win
	m["kv.server.handler_p50_us"] = us(handler.quantile(0.50))
	m["kv.server.handler_p99_us"] = us(handler.quantile(0.99))
	m["kv.server.transport_p50_us"] = us(transport.quantile(0.50))
	m["kv.server.handler_share"] = ratio(float64(inHandler), float64(inClient))
	m["kv.wal.sync_p50_us"] = us(walSync.quantile(0.50))
	m["kv.wal.sync_p99_us"] = us(walSync.quantile(0.99))
	m["kv.wal.sync_busy_share"] = ratio(float64(walSync.sum), float64(tracedWall))
	m["kv.wal.write_p50_us"] = us(walWrite.quantile(0.50))
	m["kv.wal.snapshot_bytes"] = ratio(float64(in.tr.snapBytes.Load()), float64(in.tr.snapFiles.Load()))
	return m
}

// sourceDigest hashes the Go sources and module files under the current
// directory, skipping hidden directories (build output, VCS metadata).
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not count
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSS reads the process's peak resident set from /proc (Linux only).
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxWindowSteal is the share of CPU time the hypervisor may take from the
// VM during a window before the window is left out of the figures.
const maxWindowSteal = 0.05

// quietWindows narrows the candidate windows to those with at most
// maxWindowSteal stolen, unless that would leave fewer than half of them.
// It returns the selection and how many of the candidates it keeps.
func quietWindows(steal []float64, candidate func(int) bool) (func(int) bool, int, int) {
	quiet := func(w int) bool { return candidate(w) && steal[w] <= maxWindowSteal }
	var nq, nc int
	for w := range steal {
		if candidate(w) {
			nc++
			if quiet(w) {
				nq++
			}
		}
	}
	if 2*nq < nc {
		return candidate, nc, nc
	}
	return quiet, nq, nc
}

// sampleSteal reads the steal counters at every window boundary of the
// measured period. The returned function waits for the last boundary and
// gives each window's stolen share and the whole period's.
func sampleSteal(t0 time.Time, win time.Duration, windows int) func() ([]float64, float64) {
	marks := make([]stealTicks, windows+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := range marks {
			time.Sleep(time.Until(t0.Add(time.Duration(k) * win)))
			marks[k] = cpuSteal()
		}
	}()
	return func() ([]float64, float64) {
		<-done
		shares := make([]float64, windows)
		for k := range shares {
			shares[k] = marks[k+1].share(marks[k])
		}
		return shares, marks[windows].share(marks[0])
	}
}

// stealTicks is the host-wide steal and total CPU time from /proc/stat
// (Linux only; zero elsewhere).
type stealTicks struct{ steal, total uint64 }

func cpuSteal() stealTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t stealTicks
	for i, field := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(field, 10, 64)
		if i == 7 {
			t.steal = v
		}
		if i < 8 {
			t.total += v
		}
	}
	return t
}

// share returns the fraction of CPU time stolen since start.
func (t stealTicks) share(start stealTicks) float64 {
	return ratio(float64(t.steal-start.steal), float64(t.total-start.total))
}
