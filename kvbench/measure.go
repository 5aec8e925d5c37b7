package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/kv"
)

const (
	// setupRepeats builds the fixture this many times; the median is
	// setup_s and the last one is measured.
	setupRepeats = 9
	// warmup runs the load before the measured period and is discarded:
	// without it the first durable run reads ~20% slow.
	warmup = 2 * time.Second
	// snapshotEvery is kvserver's default automatic snapshot trigger.
	snapshotEvery = 4096
	// reopenRepeats re-opens the durable store this many times after the
	// run; the median is kv.wal.recovery_s.
	reopenRepeats = 3
)

type result struct {
	e2e, layer        map[string]float64
	attempted, failed int
	samples           [nOps]uint64
	notes             []string
}

// measure builds the fixture setupRepeats times, drives the last one
// through the warm-up and the measured windows, checks the final state and
// derives every metric.
func measure(p params) (*result, error) {
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	f, setups, err := setUp(p, tr)
	if err != nil {
		return nil, err
	}
	// Drop the torn-down fixtures' arenas now, so the measured run starts
	// with the live heap (and GC pacing) of a single server.
	debug.FreeOSMemory()
	defer f.remove()
	stopped := false
	defer func() {
		if !stopped {
			f.stop()
		}
	}()

	nw := windowsFor(p.seconds)
	win := time.Duration(p.seconds) * time.Second / time.Duration(nw)
	t0 := time.Now().Add(warmup)
	end := t0.Add(time.Duration(nw) * win)
	if tr != nil {
		tr.schedule(t0, win, nw)
	}
	for _, c := range f.clients {
		c.windows = make([]window, nw)
	}
	errs := make([]error, len(f.clients))
	var wg sync.WaitGroup
	for i, c := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.run(f.backend, tr, t0, end, win)
		}()
	}
	occupancy := samplePool(f.store, tr)
	stealByWindow := sampleSteal(t0, win, nw)
	time.Sleep(time.Until(t0))
	before, err := f.snapshot()
	f.store.Heap().ResetMaxLive()
	wg.Wait()
	steal, stealTotal := stealByWindow()
	occ := occupancy()
	res := &result{}
	for _, c := range f.clients {
		for _, w := range c.windows {
			res.attempted += w.ops
			res.failed += w.failed
		}
	}
	for _, e := range append(errs, err) {
		if e != nil {
			return res, e
		}
	}
	after, err := f.snapshot()
	if err != nil {
		return res, err
	}

	// Quiescent end state and its checks.
	lenEnd, tombEnd := f.store.Len(), f.store.Tombstones()
	if !p.wl.http {
		// Rewrite every hot key so the end state is all keys live and
		// space_amp does not hang on which of 16 keys a run ended deleted.
		for _, c := range f.clients {
			for i := c.id; i < len(f.ks.keys); i += p.clients {
				if _, _, err := c.put(storeBackend{f.store}, i); err != nil {
					return res, fmt.Errorf("settle: %w", err)
				}
			}
		}
	}
	readers := make([]*reader, len(f.clients))
	for i, c := range f.clients {
		readers[i] = c.reader
	}
	got, err := f.list()
	if err != nil {
		return res, err
	}
	liveBytes, err := checkFinal(got, f.ks, readers)
	if err != nil {
		return res, err
	}
	stopped = true
	if err := f.stop(); err != nil {
		return res, fmt.Errorf("shutdown: %w", err)
	}
	heapEnd := f.store.Heap().Stats()
	if err := checkSweep(f.store.Heap().SweepMeta(), heapEnd.LiveWords); err != nil {
		return res, err
	}
	if liveBytes == 0 {
		return res, wrongf("store is empty at the end of the run")
	}

	var recoverySecs float64
	var recoveryRecords uint64
	if p.wl.durable {
		recoverySecs, recoveryRecords, err = reopen(f.dur, f.ks, readers)
		if err != nil {
			return res, err
		}
	}

	// End-to-end metrics come from every window of an untraced run, and
	// from the untraced (even) windows of a traced one. Windows in which
	// the hypervisor took more than maxWindowSteal of the VM's CPU time
	// measure the host's other tenants rather than this program; they are
	// left out as long as at least half the windows remain.
	untraced := func(w int) bool { return !p.trace || w%2 == 0 }
	sel, used, total := quietWindows(steal, untraced)
	tput, lat := summarize(f.clients, win, sel)
	res.e2e = map[string]float64{
		"throughput_ops_s": tput,
		"space_amp":        float64(heapEnd.LiveWords*8) / float64(liveBytes),
		"setup_s":          median(setups),
	}
	for op := 0; op < nOps; op++ {
		res.e2e[opNames[op]+"_p50_us"] = us(lat[op].quantile(0.50))
		res.e2e[opNames[op]+"_p99_us"] = us(lat[op].quantile(0.99))
		res.samples[op] = lat[op].n
	}
	var perWindow []string
	for w := range f.clients[0].windows {
		t, l := summarize(f.clients, win, func(x int) bool { return x == w })
		perWindow = append(perWindow, fmt.Sprintf("%.0f/%.0f/%.1f", t, us(l[opGet].quantile(0.99)), 100*steal[w]))
	}
	res.notes = append(res.notes,
		"per window ops/s / get p99 us / % stolen: "+strings.Join(perWindow, " "),
		fmt.Sprintf("setup times, sorted (s): %.4f", setups),
		"peak RSS: "+peakRSS(),
		fmt.Sprintf("CPU time stolen by the hypervisor while measuring: %.1f%%; end-to-end figures from %d of %d windows", 100*stealTotal, used, total))

	res.layer = layerMetrics(layerInput{
		f: f, before: before, after: after, heapEnd: heapEnd,
		lenEnd: lenEnd, tombEnd: tombEnd, occupancy: occ, tr: tr, win: win,
		recoverySecs: recoverySecs, recoveryRecords: recoveryRecords,
	})
	if tr != nil {
		tracedSel, _, _ := quietWindows(steal, func(w int) bool { return w%2 == 1 })
		tracedTput, _ := summarize(f.clients, win, tracedSel)
		res.layer["trace.overhead_pct"] = 100 * (tput - tracedTput) / tput
		groups := [][]span{tr.shared}
		for _, c := range f.clients {
			groups = append(groups, c.spans)
		}
		path := filepath.Join(p.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", p.wl.name, p.seed))
		if err := writeTrace(path, groups...); err != nil {
			return res, err
		}
		res.notes = append(res.notes, fmt.Sprintf("trace: %s (%d spans dropped past the cap)", path, tr.dropped.Load()))
		for _, d := range endToEnd {
			res.notes = append(res.notes, fmt.Sprintf("untraced windows: %s %.4f %s", d.name, res.e2e[d.name], d.unit))
		}
	}
	return res, nil
}

// summarize returns the median over the selected windows of the completed
// throughput, and the latencies pooled over them.
func summarize(clients []*client, win time.Duration, sel func(int) bool) (float64, [nOps]hist) {
	var lat [nOps]hist
	var tputs []float64
	for w := range clients[0].windows {
		if !sel(w) {
			continue
		}
		done := 0
		for _, c := range clients {
			cw := &c.windows[w]
			done += cw.ops - cw.failed
			for op := range lat {
				lat[op].merge(&cw.lat[op])
			}
		}
		tputs = append(tputs, float64(done)/win.Seconds())
	}
	return median(tputs), lat
}

// reopen re-opens the closed durable store reopenRepeats times, checks that
// the first recovery holds every acknowledged write, and returns the median
// Open time and the records the recovery replayed.
func reopen(dur *kv.Durability, ks *keyspace, readers []*reader) (float64, uint64, error) {
	times := make([]float64, reopenRepeats)
	var records uint64
	for i := range times {
		runtime.GC() // release the previous store before timing the next
		start := time.Now()
		s, err := kv.Open(kv.Config{Durability: dur})
		if err != nil {
			return 0, 0, wrongf("re-open: %v", err)
		}
		times[i] = time.Since(start).Seconds()
		if i == 0 {
			ri := s.Recovery()
			records = ri.SnapshotEntries + ri.LogRecords
			got, err := listStore(s)
			if err == nil {
				_, err = checkFinal(got, ks, readers)
			}
			if err != nil {
				s.Close()
				return 0, 0, fmt.Errorf("after re-open: %w", err)
			}
		}
		if err := s.Close(); err != nil {
			return 0, 0, fmt.Errorf("close after re-open: %w", err)
		}
	}
	return median(times), records, nil
}
