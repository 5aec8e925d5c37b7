package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/kv"
	"repro/kv/wal"
)

type params struct {
	wl      workload
	seed    int64
	seconds int
	trace   bool
	workDir string
	clients int
}

// fixture is a store ready to serve: preloaded, and for HTTP workloads
// behind a running kv.Server.
type fixture struct {
	ks      *keyspace
	clients []*client
	store   *kv.Store
	backend backend
	dur     *kv.Durability // WAL configuration, durable workload only
	dir     string         // WAL directory on disk, traced durable run only
	base    string         // server URL, HTTP workloads only
	admin   *http.Client   // /stats and the final listing
	stop    func() error   // stops serving and closes the store
}

func newFixture(p params, tr *tracer) (*fixture, error) {
	f := &fixture{ks: newKeyspace(p.wl.keys, p.clients)}
	for id := 0; id < p.clients; id++ {
		f.clients = append(f.clients, newClient(id, f.ks, p.seed, p.wl.mix))
	}
	var cfg kv.Config // kvserver's defaults
	if p.wl.durable {
		// kvserver's durable defaults: fsync per group-commit batch,
		// SnapshotEvery 4096, 4-MiB segments. Untraced runs put the WAL on
		// the in-memory wal.MemFS: every log, group-commit, snapshot and
		// recovery step runs, only the device is left out, because on a
		// shared host its flush and writeback latency swing several-fold
		// between runs. The traced run uses the real filesystem, so the
		// per-layer WAL figures show the device's cost.
		f.dur = &kv.Durability{Dir: "wal", FS: wal.NewMemFS(), SnapshotEvery: snapshotEvery}
		if tr != nil {
			tmp := filepath.Join(p.workDir, "tmp")
			if err := os.MkdirAll(tmp, 0o755); err != nil {
				return nil, err
			}
			dir, err := os.MkdirTemp(tmp, p.wl.name+"-")
			if err != nil {
				return nil, err
			}
			f.dir = dir
			f.dur.Dir, f.dur.FS = dir, tracedFS{FS: wal.OSFS{}, tr: tr}
		}
		cfg.Durability = f.dur
	}
	store, err := kv.Open(cfg)
	if err != nil {
		f.remove()
		return nil, err
	}
	f.store = store
	if err := f.preload(); err != nil {
		store.Close()
		f.remove()
		return nil, err
	}
	if !p.wl.http {
		f.backend = storeBackend{store}
		f.stop = store.Close
		return f, nil
	}

	sv := kv.NewServer(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		f.remove()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- sv.Serve(ctx, ln) }()
	f.base = "http://" + ln.Addr().String()

	// The traced run sends client traffic through a second listener whose
	// handler wraps ServeHTTP; Serve keeps running on the first one so the
	// jobs pipeline and /stats are exactly those of a deployed server.
	var front *http.Server
	frontDone := make(chan error, 1)
	if tr != nil {
		fl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cancel()
			<-served
			f.remove()
			return nil, err
		}
		front = &http.Server{Handler: tracedHandler{next: sv, tr: tr}}
		go func() { frontDone <- front.Serve(fl) }()
		f.base = "http://" + fl.Addr().String()
	}

	f.admin = newHTTPClient()
	for _, c := range f.clients {
		c.hc = newHTTPClient()
	}
	f.backend = httpBackend{base: f.base}
	f.stop = func() error {
		for _, c := range f.clients {
			c.hc.CloseIdleConnections()
		}
		f.admin.CloseIdleConnections()
		if front != nil {
			if err := front.Shutdown(context.Background()); err != nil {
				return err
			}
			<-frontDone
		}
		cancel()
		return <-served
	}
	return f, nil
}

// preload fills the store through direct calls, one goroutine per client.
func (f *fixture) preload() error {
	errs := make([]error, len(f.clients))
	var wg sync.WaitGroup
	for i, c := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.preload(storeBackend{f.store})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *fixture) remove() {
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// list returns every live pair: through GET /scan for HTTP workloads,
// following the cursor to the end, else through Store.Scan.
func (f *fixture) list() (map[string][]byte, error) {
	if f.base == "" {
		return listStore(f.store)
	}
	got := map[string][]byte{}
	for cursor := uint64(0); ; {
		resp, err := f.admin.Get(f.base + "/scan?limit=256&cursor=" + strconv.FormatUint(cursor, 10))
		if err != nil {
			return nil, err
		}
		var page scanPage
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, wrongf("final scan at %d: status %d, %v", cursor, resp.StatusCode, err)
		}
		if err := addPairs(got, page.Pairs); err != nil {
			return nil, err
		}
		if page.Done {
			return got, nil
		}
		if page.Next <= cursor {
			return nil, wrongf("final scan cursor went from %d to %d", cursor, page.Next)
		}
		cursor = page.Next
	}
}

func listStore(s *kv.Store) (map[string][]byte, error) {
	got := map[string][]byte{}
	for cursor := uint64(0); cursor < s.Slots(); {
		pairs, next, err := s.Scan(context.Background(), cursor, int(s.Slots()))
		if err != nil {
			return nil, err
		}
		if err := addPairs(got, pairs); err != nil {
			return nil, err
		}
		if next <= cursor {
			return nil, wrongf("scan cursor went from %d to %d", cursor, next)
		}
		cursor = next
	}
	return got, nil
}

func addPairs(got map[string][]byte, pairs []kv.Pair) error {
	for _, p := range pairs {
		k := string(p.Key)
		if _, dup := got[k]; dup {
			return wrongf("scan returned %q twice", k)
		}
		got[k] = p.Value
	}
	return nil
}

// setUp builds the fixture setupRepeats times and returns the last one with
// every build time. Each build stays alive until the last one is done, so
// each gets fresh pages from the OS, as a newly started server does, rather
// than re-zeroing a predecessor's freed arena.
func setUp(p params, tr *tracer) (*fixture, []float64, error) {
	setups := make([]float64, setupRepeats)
	built := make([]*fixture, 0, setupRepeats)
	var err error
	for i := range setups {
		runtime.GC() // the kept fixtures raise the GC target; keep RSS down
		start := time.Now()
		f, ferr := newFixture(p, tr)
		if ferr != nil {
			err = fmt.Errorf("setup: %w", ferr)
			break
		}
		setups[i] = time.Since(start).Seconds()
		built = append(built, f)
	}
	keep := len(built) - 1
	if err != nil {
		keep = -1
	}
	for i, f := range built {
		if i == keep {
			continue
		}
		if serr := f.stop(); serr != nil && err == nil {
			err = fmt.Errorf("setup teardown: %w", serr)
		}
		f.remove()
	}
	if err != nil {
		if keep >= 0 {
			built[keep].stop()
			built[keep].remove()
		}
		return nil, nil, err
	}
	return built[keep], setups, nil
}
