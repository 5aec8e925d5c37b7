package kv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/harness"
)

// Load driver for the KV service: drives GET/PUT/DELETE/SCAN traffic at a
// live server over HTTP, records per-operation latency samples, and reduces
// them to the percentile/throughput record the bench pipeline understands
// (harness.Report), so server-level numbers are gated by cmd/benchtrend
// exactly like the microbenchmark snapshots.

// Load operations, in fixed order so reports always cover the same series.
var loadOps = []string{"GET", "PUT", "DELETE", "SCAN"}

// LoadConfig parameterizes a load run.
type LoadConfig struct {
	// Workers is the number of concurrent clients (closed-loop lanes).
	Workers int
	// Duration is the measured window (after seeding).
	Duration time.Duration
	// RatePerSec > 0 selects open-loop mode: operations are dispatched on a
	// fixed schedule at this aggregate rate and latency includes queueing
	// delay behind a slow server. 0 selects closed loop: each worker issues
	// its next operation as soon as the previous one completes.
	RatePerSec float64
	// Keys is the keyspace size; keys are "k000042"-shaped.
	Keys int
	// ValueBytes is the value payload size for PUTs.
	ValueBytes int
	// GetPct/PutPct/DeletePct/ScanPct is the operation mix in percent; they
	// must sum to ≤ 100 (the remainder goes to GET).
	GetPct, PutPct, DeletePct, ScanPct int
	// ScanLimit is the page size for SCAN operations.
	ScanLimit int
	// Seed seeds the per-worker PRNGs (reproducible mixes).
	Seed int64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Keys <= 0 {
		c.Keys = 4096
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 128
	}
	if c.GetPct+c.PutPct+c.DeletePct+c.ScanPct == 0 {
		c.GetPct, c.PutPct, c.DeletePct, c.ScanPct = 60, 25, 10, 5
	}
	if c.ScanLimit <= 0 {
		c.ScanLimit = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// OpResult is the reduced record of one operation type.
type OpResult struct {
	Name               string
	Count              int
	Errors             int // transport failures and unexpected statuses
	P50, P90, P99, Max time.Duration
	// OpsPerUs is this operation's completed throughput across the run.
	OpsPerUs float64
}

// LoadResult is the outcome of RunLoad.
type LoadResult struct {
	Config  LoadConfig
	Elapsed time.Duration
	Ops     []OpResult // fixed order: GET, PUT, DELETE, SCAN
	// TotalOpsPerUs is aggregate completed throughput.
	TotalOpsPerUs float64
}

// opSample is one recorded operation.
type opSample struct {
	op  int
	lat time.Duration
	err bool
}

// loadWorker drives one lane of traffic.
type loadWorker struct {
	cfg     LoadConfig
	client  *http.Client
	base    string
	rng     *rand.Rand
	value   []byte
	samples []opSample
	cursor  uint64
}

// pickOp maps a [0,100) roll onto the mix; forced preseeds the first four
// operations one of each kind, so every series has at least one sample and a
// committed snapshot's coverage can never shrink just because a short run
// rolled zero DELETEs.
func (w *loadWorker) pickOp(n int) int {
	if n < 4 {
		return n
	}
	roll := w.rng.Intn(100)
	switch {
	case roll < w.cfg.PutPct:
		return 1
	case roll < w.cfg.PutPct+w.cfg.DeletePct:
		return 2
	case roll < w.cfg.PutPct+w.cfg.DeletePct+w.cfg.ScanPct:
		return 3
	default:
		return 0
	}
}

func (w *loadWorker) key() string {
	return fmt.Sprintf("k%06d", w.rng.Intn(w.cfg.Keys))
}

// do issues one operation and reports whether it failed. 404s are expected
// outcomes (GET/DELETE of an absent or deleted key), not errors.
func (w *loadWorker) do(ctx context.Context, op int) bool {
	var (
		req *http.Request
		err error
	)
	switch op {
	case 0:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/kv/"+w.key(), nil)
	case 1:
		req, err = http.NewRequestWithContext(ctx, http.MethodPut, w.base+"/kv/"+w.key(), bytes.NewReader(w.value))
	case 2:
		req, err = http.NewRequestWithContext(ctx, http.MethodDelete, w.base+"/kv/"+w.key(), nil)
	case 3:
		url := fmt.Sprintf("%s/scan?cursor=%d&limit=%d", w.base, w.cursor, w.cfg.ScanLimit)
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	}
	if err != nil {
		return true
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return true
	}
	defer resp.Body.Close()
	if op == 3 && resp.StatusCode == http.StatusOK {
		// Follow the page's cursor, wrapping to the first page after the
		// last, so successive scans walk the whole index again and again.
		var page scanResponse
		if json.NewDecoder(resp.Body).Decode(&page) == nil {
			w.cursor = page.Next
			if page.Done {
				w.cursor = 0
			}
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode >= 400 && resp.StatusCode != http.StatusNotFound
}

// seedPut issues one seed-phase PUT, retrying transient failures (transport
// errors from a server still binding its listener, 503s from one shedding
// load at startup) with exponential backoff capped at 500ms. Hard failures
// (4xx) surface immediately — retrying a rejected request cannot help.
func seedPut(ctx context.Context, client *http.Client, baseURL, key string, val []byte) error {
	const (
		attempts = 6
		maxPause = 500 * time.Millisecond
	)
	pause := 25 * time.Millisecond
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(pause):
			}
			if pause *= 2; pause > maxPause {
				pause = maxPause
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, baseURL+"/kv/"+key, bytes.NewReader(val))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("kvload: seeding failed (is the server up?): %w", err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode < 400:
			return nil
		case resp.StatusCode == http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("kvload: seed PUT %s -> %d (server shedding)", key, resp.StatusCode)
		default:
			return fmt.Errorf("kvload: seed PUT %s -> %d", key, resp.StatusCode)
		}
	}
	return lastErr
}

// RunLoad seeds the keyspace (one PUT per key, unmeasured), then drives the
// configured mix against baseURL for cfg.Duration and reduces the samples.
func RunLoad(ctx context.Context, baseURL string, cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	transport := &http.Transport{
		MaxIdleConns:        cfg.Workers * 2,
		MaxIdleConnsPerHost: cfg.Workers * 2,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	// Seed phase: make GETs meaningful from the first measured op.
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	seedVal := make([]byte, cfg.ValueBytes)
	for i := range seedVal {
		seedVal[i] = byte(seedRng.Intn(256))
	}
	for i := 0; i < cfg.Keys; i++ {
		key := fmt.Sprintf("k%06d", i)
		if err := seedPut(ctx, client, baseURL, key, seedVal); err != nil {
			return nil, err
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	// Open-loop dispatch channel: a token per scheduled operation. Closed
	// loop leaves it nil and workers self-pace.
	var tokens chan struct{}
	if cfg.RatePerSec > 0 {
		tokens = make(chan struct{})
		go func() {
			interval := time.Duration(float64(time.Second) / cfg.RatePerSec)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					close(tokens)
					return
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					default: // all workers busy: the op is dropped, not queued
					}
				}
			}
		}()
	}

	workers := make([]*loadWorker, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		w := &loadWorker{
			cfg:    cfg,
			client: client,
			base:   baseURL,
			rng:    rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			value:  seedVal,
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				if tokens != nil {
					if _, ok := <-tokens; !ok {
						return
					}
				} else if runCtx.Err() != nil {
					return
				}
				op := w.pickOp(n)
				t0 := time.Now()
				failed := w.do(runCtx, op)
				lat := time.Since(t0)
				if runCtx.Err() != nil && failed {
					return // cancellation mid-request, not a server error
				}
				w.samples = append(w.samples, opSample{op: op, lat: lat, err: failed})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &LoadResult{Config: cfg, Elapsed: elapsed}
	var total int
	for opIdx, name := range loadOps {
		var lats []time.Duration
		errs := 0
		for _, w := range workers {
			for _, s := range w.samples {
				if s.op != opIdx {
					continue
				}
				if s.err {
					errs++
					continue
				}
				lats = append(lats, s.lat)
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		r := OpResult{Name: name, Count: len(lats), Errors: errs}
		if n := len(lats); n > 0 {
			r.P50 = lats[n/2]
			r.P90 = lats[n*9/10]
			r.P99 = lats[n*99/100]
			r.Max = lats[n-1]
			r.OpsPerUs = float64(n) / float64(elapsed.Microseconds())
		}
		total += r.Count
		res.Ops = append(res.Ops, r)
	}
	res.TotalOpsPerUs = float64(total) / float64(elapsed.Microseconds())
	return res, nil
}

// LatencyTable renders the per-op latency percentiles in the harness's table
// shape. Column labels carry the ns/op unit so benchtrend treats every point
// as lower-is-better.
func (r *LoadResult) LatencyTable() *harness.Table {
	t := &harness.Table{
		Title:  "KV service latency: per-op percentiles over HTTP [ns/op]",
		XLabel: "op",
		Xs:     []string{"p50 ns/op", "p90 ns/op", "p99 ns/op"},
	}
	for _, op := range r.Ops {
		t.Series = append(t.Series, harness.Series{
			Label: op.Name,
			Ys:    []float64{float64(op.P50), float64(op.P90), float64(op.P99)},
		})
	}
	return t
}

// Benchmarks renders throughput (and latency medians) as flat benchmark
// entries for the trend gate.
func (r *LoadResult) Benchmarks() []harness.Benchmark {
	bs := []harness.Benchmark{{
		Name:     "kvload/total",
		OpsPerUs: r.TotalOpsPerUs,
		Note:     fmt.Sprintf("%d workers, %s, mix %d/%d/%d/%d", r.Config.Workers, r.Elapsed.Round(time.Millisecond), r.Config.GetPct, r.Config.PutPct, r.Config.DeletePct, r.Config.ScanPct),
	}}
	for _, op := range r.Ops {
		bs = append(bs, harness.Benchmark{
			Name:     "kvload/" + op.Name,
			OpsPerUs: op.OpsPerUs,
			Note:     fmt.Sprintf("count=%d errors=%d", op.Count, op.Errors),
		})
	}
	return bs
}

// FillReport appends the run's tables and benchmarks to rep and records the
// load configuration.
func (r *LoadResult) FillReport(rep *harness.Report) {
	rep.SetConfig("kvload_workers", fmt.Sprint(r.Config.Workers))
	rep.SetConfig("kvload_duration", r.Config.Duration.String())
	rep.SetConfig("kvload_keys", fmt.Sprint(r.Config.Keys))
	rep.SetConfig("kvload_value_bytes", fmt.Sprint(r.Config.ValueBytes))
	mode := "closed-loop"
	if r.Config.RatePerSec > 0 {
		mode = fmt.Sprintf("open-loop@%.0f/s", r.Config.RatePerSec)
	}
	rep.SetConfig("kvload_mode", mode)
	rep.AddTable(r.LatencyTable())
	rep.Benchmarks = append(rep.Benchmarks, r.Benchmarks()...)
}

// String renders a human summary.
func (r *LoadResult) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== KV load: %d workers, %s elapsed, %.3f ops/us total ==\n",
		r.Config.Workers, r.Elapsed.Round(time.Millisecond), r.TotalOpsPerUs)
	fmt.Fprintf(&b, "%-8s %10s %8s %12s %12s %12s %12s\n", "op", "count", "errors", "p50", "p90", "p99", "max")
	for _, op := range r.Ops {
		fmt.Fprintf(&b, "%-8s %10d %8d %12s %12s %12s %12s\n",
			op.Name, op.Count, op.Errors,
			op.P50.Round(time.Microsecond), op.P90.Round(time.Microsecond),
			op.P99.Round(time.Microsecond), op.Max.Round(time.Microsecond))
	}
	return b.String()
}
