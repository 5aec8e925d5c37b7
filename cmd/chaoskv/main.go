// Command chaoskv is the fault-injection harness for the KV service: it runs
// an in-process Server on a heap configured with a seeded htm.FaultPlan and
// checks that the service stays CORRECT (every response consistent with a
// shadow model), CONVERGENT (the heap's per-word metadata is clean and no
// word leaked once the run quiesces) and DETERMINISTIC (the same seed
// reproduces the same fault and abort counts, so any failure it ever finds
// can be replayed exactly).
//
// The run has two phases:
//
//   - Deterministic replay: a single sequential client drives a seeded
//     operation stream at a one-context store with a logical clock, checking
//     every response against an exact shadow model. The phase runs twice and
//     must produce byte-identical "determinism-key:" fingerprints (fault,
//     abort and op counts plus a model hash). CI additionally diffs the
//     fingerprint across two whole process runs. With -adapt-pinned the
//     store runs its contention Tuner enabled but pinned — sampling epochs
//     tick on a real timer, yet the mode is never switched — and the
//     fingerprint must STILL replay exactly: the proof that the adaptive
//     machinery itself perturbs nothing.
//
//   - Overload sweep: concurrent clients hammer an admission-controlled,
//     request-timeout-bounded server while the injection probability rises.
//     Each client owns a disjoint key partition and checks its own shadow
//     model (a 503 — shed or abandoned — is guaranteed to have had no
//     effect). The sweep demonstrates graceful degradation: the server sheds
//     load with 503s while ADMITTED requests keep a bounded p99.
//
// After each phase the heap must sweep clean: no word locked, no fallback
// tag left behind, allocation accounting exact, and — once every key is
// deleted — the live footprint back at the empty-store baseline.
//
// With -json the figures are written as a machine-readable harness.Report;
// -append merges into an existing report (the CI pipeline builds one
// BENCH_CI.json across all benches). Any model violation, dirty sweep or
// fingerprint mismatch makes the exit status nonzero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"repro/htm"
	"repro/internal/harness"
	"repro/kv"
)

func main() {
	os.Exit(run())
}

// chaosProbs is the overload sweep's injection-probability axis. -quick keeps
// the same points (only windows shrink) so quick CI runs and committed
// snapshots cover identical series and the coverage gate can compare them.
var chaosProbs = []float64{0, 0.05, 0.25}

// reqTimeout bounds each overload-phase request; admitted-latency p99 is
// asserted against a generous multiple of it (deadline checks happen between
// retry attempts, so a slow attempt can overshoot, and CI machines stall).
const (
	reqTimeout   = 25 * time.Millisecond
	p99BoundMult = 20
)

func run() int {
	seed := flag.Uint64("seed", 1, "fault-plan and workload seed (replay a run by its seed)")
	ops := flag.Int("ops", 4000, "operation count of the deterministic phase")
	dur := flag.Duration("duration", 250*time.Millisecond, "measured window per overload point")
	clients := flag.Int("clients", 8, "concurrent clients in the overload phase")
	quick := flag.Bool("quick", false, "reduced run: fewer ops and shorter windows, same sweep")
	jsonOut := flag.String("json", "", "write (or with -append, merge) results as a machine-readable Report to this file")
	appendTo := flag.Bool("append", false, "merge the tables into an existing -json report instead of overwriting it")
	label := flag.String("label", "chaoskv", "label recorded in the -json report")
	adaptPinned := flag.Bool("adapt-pinned", false, "run the deterministic phase with the contention tuner enabled but pinned (sampling without acting)")
	flag.Parse()

	if *quick {
		if *ops > 1000 {
			*ops = 1000
		}
		if *dur > 100*time.Millisecond {
			*dur = 100 * time.Millisecond
		}
	}

	failures := 0

	// Phase 1: deterministic replay, twice, fingerprints compared. The
	// pinned tuner is part of the configuration: the phase must stay
	// replayable with and without it (CI runs it both ways).
	fp1, err := deterministicRun(*seed, *ops, *adaptPinned)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaoskv: deterministic phase: %v\n", err)
		return 1
	}
	fp2, err := deterministicRun(*seed, *ops, *adaptPinned)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaoskv: deterministic phase (replay): %v\n", err)
		return 1
	}
	if fp1 != fp2 {
		fmt.Fprintf(os.Stderr, "chaoskv: NONDETERMINISM across same-seed runs:\n  run1: %s\n  run2: %s\n", fp1, fp2)
		failures++
	}
	// CI diffs this line across two whole process invocations.
	fmt.Println(fp1)
	fmt.Println()

	// Phase 2: overload sweep across injection probabilities.
	var points []harness.ChaosPoint
	var violations []string
	for _, p := range chaosProbs {
		pt, viols := overloadPoint(*seed, p, *clients, *dur)
		points = append(points, pt)
		violations = append(violations, viols...)
	}

	tables := harness.ChaosTables(points)
	for _, t := range tables {
		fmt.Println(t.Render())
	}

	// Hardening claims: past the clean point the server must have rejected
	// load with 503s, and what it admitted must have stayed bounded.
	var rejected uint64
	for _, pt := range points {
		if pt.Prob > 0 {
			rejected += pt.Rejected
		}
		if pt.Prob > 0 && pt.P99 > p99BoundMult*reqTimeout {
			violations = append(violations, fmt.Sprintf(
				"p=%.2f: admitted p99 %s exceeds bound %s", pt.Prob, pt.P99, p99BoundMult*reqTimeout))
		}
	}
	if rejected == 0 {
		violations = append(violations, "overloaded server never shed a request (expected 503s at nonzero injection)")
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "chaoskv: VIOLATION: %s\n", v)
		failures++
	}

	if *jsonOut != "" {
		rep := harness.NewReport(*label)
		if *appendTo {
			if existing, err := harness.ReadJSONFile(*jsonOut); err == nil {
				rep = existing
				rep.Label = *label
			} else if !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "chaoskv: read %s: %v\n", *jsonOut, err)
				return 1
			}
		}
		rep.SetConfig("chaos_seed", fmt.Sprint(*seed))
		rep.SetConfig("chaos_ops", fmt.Sprint(*ops))
		rep.SetConfig("chaos_clients", fmt.Sprint(*clients))
		rep.SetConfig("chaos_duration", dur.String())
		rep.SetConfig("chaos_determinism_key", fp1)
		for _, t := range tables {
			rep.AddTable(t)
		}
		rep.Benchmarks = append(rep.Benchmarks, harness.ChaosBenchmarks(points)...)
		if err := rep.WriteJSONFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "chaoskv: write %s: %v\n", *jsonOut, err)
			return 1
		}
		fmt.Printf("# wrote %s\n", *jsonOut)
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "chaoskv: FAILED (%d violation(s))\n", failures)
		return 1
	}
	fmt.Println("chaoskv: all checks passed")
	return 0
}

// xorshift64 is the driver's own deterministic stream — distinct from the
// engine's injection PRNGs, which derive from the same seed but are salted
// per thread.
func xorshift64(x *uint64) uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return v
}

// doHTTP issues one request through the server's full middleware chain
// without a network in between.
func doHTTP(sv *kv.Server, method, target string, body []byte) *httptest.ResponseRecorder {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, r)
	w := httptest.NewRecorder()
	sv.ServeHTTP(w, req)
	return w
}

// scanPage mirrors the server's GET /scan JSON shape.
type scanPage struct {
	Pairs []struct {
		Key   []byte `json:"key"`
		Value []byte `json:"value"`
	} `json:"pairs"`
	Next uint64 `json:"next"`
	Done bool   `json:"done"`
}

// deterministicRun drives the sequential phase once and returns its
// fingerprint line. Everything that could perturb counts is pinned: one pool
// context, one client goroutine, a logical expiry clock, no background jobs
// (the pipeline only starts under Serve), no admission (its sampler reads
// wall-clock time). The injection PRNG is the engine's own, seeded from
// -seed; the workload stream is an independent xorshift from the same seed.
// adaptPinned additionally runs the contention Tuner in pinned mode: its
// sampling goroutine ticks on real time (epoch counts vary run to run and
// stay OUT of the fingerprint), but it never switches the mode, so every
// counter that IS fingerprinted must be untouched by its presence.
func deterministicRun(seed uint64, ops int, adaptPinned bool) (string, error) {
	plan := &htm.FaultPlan{
		Seed:         seed,
		BeginProb:    0.05,
		AccessProb:   0.02,
		AccessEvery:  3,
		CommitProb:   0.05,
		MaxPerOp:     6, // bounded adversity: every op still terminates on the hardware path
		StallProb:    0.25,
		StallSpins:   16,
		ReleaseDelay: 2,
	}
	var tick int64 // logical clock: single-threaded phase, no atomics needed
	cfg := kv.Config{
		Slots:       1 << 10,
		PoolThreads: 1,
		MaxRetries:  4, // below MaxPerOp: unlucky ops engage the (injection-immune) fallback
		Faults:      plan,
		Now:         func() int64 { tick++; return tick },
	}
	if adaptPinned {
		cfg.Adaptive = &kv.AdaptiveConfig{Pinned: true}
	}
	store := kv.NewStore(cfg)
	defer store.Close() // stops the pinned tuner's sampling goroutine
	sv := kv.NewServer(store)
	baseline := store.Heap().Stats().LiveWords

	rng := seed
	if rng == 0 {
		rng = 0x9E3779B97F4A7C15
	}
	model := make(map[string]string)
	var fulls uint64
	for i := 0; i < ops; i++ {
		roll := xorshift64(&rng) % 100
		key := fmt.Sprintf("k%03d", xorshift64(&rng)%256)
		switch {
		case roll < 45: // PUT
			val := fmt.Sprintf("v%d.%d", i, xorshift64(&rng)%1000000)
			w := doHTTP(sv, http.MethodPut, "/kv/"+key, []byte(val))
			switch w.Code {
			case http.StatusNoContent:
				model[key] = val
			case http.StatusInsufficientStorage:
				fulls++ // index at capacity: a no-op outcome, counted into the fingerprint
			default:
				return "", fmt.Errorf("op %d: PUT %s -> %d", i, key, w.Code)
			}
		case roll < 70: // GET
			w := doHTTP(sv, http.MethodGet, "/kv/"+key, nil)
			want, ok := model[key]
			switch {
			case ok && w.Code == http.StatusOK:
				if got := w.Body.String(); got != want {
					return "", fmt.Errorf("op %d: GET %s = %q, model has %q", i, key, got, want)
				}
			case !ok && w.Code == http.StatusNotFound:
			default:
				return "", fmt.Errorf("op %d: GET %s -> %d (in model: %v)", i, key, w.Code, ok)
			}
		case roll < 85: // DELETE
			w := doHTTP(sv, http.MethodDelete, "/kv/"+key, nil)
			_, ok := model[key]
			switch {
			case ok && w.Code == http.StatusNoContent:
				delete(model, key)
			case !ok && w.Code == http.StatusNotFound:
			default:
				return "", fmt.Errorf("op %d: DELETE %s -> %d (in model: %v)", i, key, w.Code, ok)
			}
		default: // SCAN: one page from a random cursor, every pair must match
			cursor := xorshift64(&rng) % store.Slots()
			w := doHTTP(sv, http.MethodGet, fmt.Sprintf("/scan?cursor=%d&limit=16", cursor), nil)
			if w.Code != http.StatusOK {
				return "", fmt.Errorf("op %d: SCAN @%d -> %d", i, cursor, w.Code)
			}
			var page scanPage
			if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
				return "", fmt.Errorf("op %d: SCAN decode: %v", i, err)
			}
			for _, p := range page.Pairs {
				if want, ok := model[string(p.Key)]; !ok || want != string(p.Value) {
					return "", fmt.Errorf("op %d: SCAN surfaced %q=%q, model has %q (present: %v)",
						i, p.Key, p.Value, want, ok)
				}
			}
		}
	}

	// Full drain scan: the store's contents must BE the model, exactly.
	found := 0
	for cursor := uint64(0); cursor < store.Slots(); {
		w := doHTTP(sv, http.MethodGet, fmt.Sprintf("/scan?cursor=%d&limit=64", cursor), nil)
		if w.Code != http.StatusOK {
			return "", fmt.Errorf("drain SCAN @%d -> %d", cursor, w.Code)
		}
		var page scanPage
		if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
			return "", fmt.Errorf("drain SCAN decode: %v", err)
		}
		for _, p := range page.Pairs {
			if want, ok := model[string(p.Key)]; !ok || want != string(p.Value) {
				return "", fmt.Errorf("drain SCAN surfaced %q=%q, model has %q (present: %v)",
					p.Key, p.Value, want, ok)
			}
			found++
		}
		if page.Done {
			break
		}
		cursor = page.Next
	}
	if found != len(model) {
		return "", fmt.Errorf("drain SCAN found %d entries, model has %d", found, len(model))
	}
	modelHash := hashModel(model)

	// Delete every key in sorted order (map order would perturb probe paths
	// and with them the injection counts), then check the heap swept clean.
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w := doHTTP(sv, http.MethodDelete, "/kv/"+k, nil); w.Code != http.StatusNoContent {
			return "", fmt.Errorf("drain DELETE %s -> %d", k, w.Code)
		}
	}
	if err := sweepClean(store, baseline); err != nil {
		return "", fmt.Errorf("post-drain %v", err)
	}

	st := store.Heap().Stats()
	oc := store.OpCounters()
	adapt := 0
	if adaptPinned {
		adapt = 1
	}
	return fmt.Sprintf(
		"determinism-key: seed=%d ops=%d adapt=%d starts=%d commits=%d spurious=%d conflicts=%d capacity=%d fallbacks=%d stalls=%d fulls=%d gets=%d puts=%d dels=%d scans=%d model=%016x",
		seed, ops, adapt, st.Starts, st.Commits, st.SpuriousAborts(),
		st.Aborts[htm.AbortConflict], st.Aborts[htm.AbortCapacity],
		st.FallbackRuns, st.FallbackStalls, fulls,
		oc.Gets, oc.Puts, oc.Deletes, oc.Scans, modelHash), nil
}

// hashModel is FNV-1a 64 over the sorted key/value pairs.
func hashModel(model map[string]string) uint64 {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	step := func(s string, sep byte) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= uint64(sep)
		h *= prime64
	}
	for _, k := range keys {
		step(k, 0x00)
		step(model[k], 0x01)
	}
	return h
}

// sweepClean asserts the quiesced heap's invariants: nothing locked, no
// fallback tag left behind, allocation bitmap agreeing with the live-word
// accounting, and the live footprint back at the empty-store baseline.
func sweepClean(store *kv.Store, baseline uint64) error {
	ms := store.Heap().SweepMeta()
	st := store.Heap().Stats()
	switch {
	case ms.Locked != 0:
		return fmt.Errorf("sweep: %d words still locked at quiescence", ms.Locked)
	case ms.FallbackTagged != 0:
		return fmt.Errorf("sweep: %d words still fallback-tagged at quiescence", ms.FallbackTagged)
	case ms.StripeErrors != 0:
		return fmt.Errorf("sweep: %d block-header vs metadata disagreements at quiescence", ms.StripeErrors)
	case ms.Allocated != st.LiveWords:
		return fmt.Errorf("sweep: %d words allocated, accounting says %d live", ms.Allocated, st.LiveWords)
	case st.LiveWords != baseline:
		return fmt.Errorf("sweep: %d live words after full drain, empty-store baseline is %d (leak)", st.LiveWords, baseline)
	}
	return nil
}

// overloadPoint drives one point of the overload sweep: `clients` concurrent
// closed-loop clients against an admission-controlled server whose engine
// pool is deliberately smaller than the client count, for `dur`. Each client
// owns a disjoint key partition and an exact shadow model of it — a 503
// (shed or deadline-abandoned) is contractually effect-free, so the model
// checking stays sound under arbitrary rejection.
func overloadPoint(seed uint64, prob float64, clients int, dur time.Duration) (harness.ChaosPoint, []string) {
	var plan *htm.FaultPlan
	if prob > 0 {
		plan = &htm.FaultPlan{
			Seed:         seed,
			BeginProb:    prob,
			AccessProb:   prob / 2,
			AccessEvery:  2,
			CommitProb:   prob / 2,
			MaxPerOp:     24,
			StallProb:    prob,
			StallSpins:   32,
			ReleaseDelay: 1,
		}
	}
	pool := clients / 4
	if pool < 2 {
		pool = 2
	}
	store := kv.NewStore(kv.Config{
		Slots:       1 << 12,
		PoolThreads: pool,
		MaxRetries:  4, // injection can exhaust this, driving traffic onto the stalled fallback
		Faults:      plan,
	})
	sv := kv.NewServer(store,
		kv.WithAdmissionControl(kv.AdmissionConfig{}),
		kv.WithRequestTimeout(reqTimeout),
	)
	baseline := store.Heap().Stats().LiveWords

	type workerOut struct {
		lats      []time.Duration
		admitted  uint64
		rejected  uint64
		shadow    map[string]string
		violation []string
	}
	outs := make([]workerOut, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			out := &outs[id]
			out.shadow = make(map[string]string)
			rng := seed ^ uint64(id+1)*0x9E3779B97F4A7C15
			if rng == 0 {
				rng = 1
			}
			for n := 0; time.Now().Before(deadline); n++ {
				roll := xorshift64(&rng) % 100
				key := fmt.Sprintf("c%02d-k%02d", id, xorshift64(&rng)%32)
				t0 := time.Now()
				switch {
				case roll < 50: // PUT
					val := fmt.Sprintf("v%d.%d", id, n)
					w := doHTTP(sv, http.MethodPut, "/kv/"+key, []byte(val))
					switch w.Code {
					case http.StatusNoContent:
						out.shadow[key] = val
						out.admitted++
						out.lats = append(out.lats, time.Since(t0))
					case http.StatusServiceUnavailable:
						out.rejected++ // no effect, model unchanged
					default:
						out.violation = append(out.violation, fmt.Sprintf("client %d: PUT %s -> %d", id, key, w.Code))
					}
				case roll < 85: // GET
					w := doHTTP(sv, http.MethodGet, "/kv/"+key, nil)
					want, ok := out.shadow[key]
					switch {
					case w.Code == http.StatusServiceUnavailable:
						out.rejected++
					case ok && w.Code == http.StatusOK && w.Body.String() == want:
						out.admitted++
						out.lats = append(out.lats, time.Since(t0))
					case !ok && w.Code == http.StatusNotFound:
						out.admitted++
						out.lats = append(out.lats, time.Since(t0))
					default:
						out.violation = append(out.violation, fmt.Sprintf(
							"client %d: GET %s -> %d body %q, model %q (present: %v)",
							id, key, w.Code, w.Body.String(), want, ok))
					}
				default: // DELETE
					w := doHTTP(sv, http.MethodDelete, "/kv/"+key, nil)
					_, ok := out.shadow[key]
					switch {
					case w.Code == http.StatusServiceUnavailable:
						out.rejected++
					case ok && w.Code == http.StatusNoContent:
						delete(out.shadow, key)
						out.admitted++
						out.lats = append(out.lats, time.Since(t0))
					case !ok && w.Code == http.StatusNotFound:
						out.admitted++
						out.lats = append(out.lats, time.Since(t0))
					default:
						out.violation = append(out.violation, fmt.Sprintf(
							"client %d: DELETE %s -> %d (in model: %v)", id, key, w.Code, ok))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	pt := harness.ChaosPoint{Prob: prob, Elapsed: elapsed}
	var lats []time.Duration
	var violations []string
	for i := range outs {
		pt.Admitted += outs[i].admitted
		pt.Rejected += outs[i].rejected
		lats = append(lats, outs[i].lats...)
		violations = append(violations, outs[i].violation...)
	}
	pt.P50 = harness.LatencyPercentile(lats, 0.50)
	pt.P99 = harness.LatencyPercentile(lats, 0.99)
	pt.Sheds = sv.Metrics().Sheds.Load()
	pt.Deadlines = sv.Metrics().DeadlineHits.Load()
	st := store.Heap().Stats()
	pt.Spurious = st.SpuriousAborts()
	pt.Stalls = st.FallbackStalls

	// Quiesced: every surviving key per the shadows must still read back,
	// then drain them all and sweep the heap for leaks and stuck metadata.
	bg := context.Background()
	for i := range outs {
		keys := make([]string, 0, len(outs[i].shadow))
		for k := range outs[i].shadow {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			val, ok, err := store.Get(bg, []byte(k))
			if err != nil || !ok || string(val) != outs[i].shadow[k] {
				violations = append(violations, fmt.Sprintf(
					"p=%.2f post-run: key %s = %q,%v,%v; model %q", prob, k, val, ok, err, outs[i].shadow[k]))
				continue
			}
			if existed, err := store.Delete(bg, []byte(k)); err != nil || !existed {
				violations = append(violations, fmt.Sprintf(
					"p=%.2f post-run: drain DELETE %s = %v,%v", prob, k, existed, err))
			}
		}
	}
	if err := sweepClean(store, baseline); err != nil {
		violations = append(violations, fmt.Sprintf("p=%.2f %v", prob, err))
	}
	return pt, violations
}
