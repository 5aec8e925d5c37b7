package kv

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

func TestRunLoadCoversEverySeries(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real traffic for ~300ms")
	}
	sv := NewServer(newTestStore(t, Config{Slots: 4096}))
	ts := httptest.NewServer(sv)
	defer ts.Close()

	res, err := RunLoad(context.Background(), ts.URL, LoadConfig{
		Workers:  2,
		Duration: 300 * time.Millisecond,
		Keys:     64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != len(loadOps) {
		t.Fatalf("ops: %d want %d", len(res.Ops), len(loadOps))
	}
	// pickOp forces each worker's first four ops to be one of each kind, so
	// even a sub-second run covers every series — the property the committed
	// BENCH snapshot's coverage gate depends on.
	for i, op := range res.Ops {
		if op.Name != loadOps[i] {
			t.Fatalf("op order: got %s at %d", op.Name, i)
		}
		if op.Count == 0 {
			t.Fatalf("series %s has no samples", op.Name)
		}
		if op.Errors > 0 {
			t.Fatalf("series %s saw %d errors against a local server", op.Name, op.Errors)
		}
		if op.P50 <= 0 || op.Max < op.P99 || op.P99 < op.P50 {
			t.Fatalf("series %s has incoherent percentiles: %+v", op.Name, op)
		}
	}
	if res.TotalOpsPerUs <= 0 {
		t.Fatal("no throughput recorded")
	}

	rep := harness.NewReport("loadgen-test")
	res.FillReport(rep)
	if len(rep.Tables) != 1 {
		t.Fatalf("tables: %d", len(rep.Tables))
	}
	tab := rep.Tables[0]
	if !strings.Contains(tab.Title, "ns/op") {
		t.Fatalf("latency table title must carry the ns/op unit: %q", tab.Title)
	}
	if len(tab.Series) != 4 || len(tab.Xs) != 3 {
		t.Fatalf("table shape: %d series x %d cols", len(tab.Series), len(tab.Xs))
	}
	if len(rep.Benchmarks) != 5 { // total + one per op
		t.Fatalf("benchmarks: %d", len(rep.Benchmarks))
	}
	// A second identical-config run must produce an identical SHAPE (the
	// coverage contract benchtrend -coverage-only enforces between a committed
	// snapshot and a CI run).
	res2, err := RunLoad(context.Background(), ts.URL, LoadConfig{
		Workers:  2,
		Duration: 300 * time.Millisecond,
		Keys:     64,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := harness.NewReport("loadgen-test-2")
	res2.FillReport(rep2)
	diff := harness.DiffReports(rep, rep2, 1e9) // huge threshold: shape only
	if diff.MissingInNew > 0 {
		t.Fatalf("identical config lost coverage: %d points missing", diff.MissingInNew)
	}
}

// TestLoadWorkerScanFollowsCursor drives consecutive worker SCANs against a
// seeded server whose index spans several scan windows. The worker must
// follow each page's next cursor, wrap to 0 on done, and keep seeing the
// seeded keys on the pages after the wrap — every pass over the index
// returns each key exactly once.
func TestLoadWorkerScanFollowsCursor(t *testing.T) {
	const keys = 300
	store := newTestStore(t, Config{Slots: 4 * scanSlotWindow})
	for i := 0; i < keys; i++ {
		if err := store.Put(bg, []byte(fmt.Sprintf("k%06d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Record every page the server sends, as the worker received it.
	type page struct {
		cursor string
		resp   scanResponse
	}
	var pages []page
	sv := NewServer(store)
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		sv.ServeHTTP(rec, r)
		var p page
		p.cursor = r.URL.Query().Get("cursor")
		if err := json.Unmarshal(rec.Body.Bytes(), &p.resp); err != nil {
			t.Errorf("scan page: %v", err)
		}
		pages = append(pages, p)
		rw.WriteHeader(rec.Code)
		rw.Write(rec.Body.Bytes())
	}))
	defer ts.Close()

	w := &loadWorker{
		cfg:    LoadConfig{ScanLimit: 64}.withDefaults(),
		client: ts.Client(),
		base:   ts.URL,
		rng:    rand.New(rand.NewSource(1)),
	}
	for passes := 0; passes < 3; {
		if failed := w.do(bg, 3); failed {
			t.Fatalf("scan %d failed", len(pages))
		}
		if pages[len(pages)-1].resp.Done {
			passes++
		}
		if len(pages) > 1000 {
			t.Fatal("scan cursor never wrapped")
		}
	}
	// Split the page log into passes at each wrap and check every pass.
	seen := map[string]bool{}
	pass, want := 0, uint64(0)
	for i, p := range pages {
		if p.cursor != fmt.Sprint(want) {
			t.Fatalf("page %d requested cursor %s, want %d", i, p.cursor, want)
		}
		for _, kv := range p.resp.Pairs {
			if seen[string(kv.Key)] {
				t.Fatalf("pass %d: key %s returned twice", pass, kv.Key)
			}
			seen[string(kv.Key)] = true
		}
		want = p.resp.Next
		if p.resp.Done {
			if len(seen) != keys {
				t.Fatalf("pass %d returned %d keys, want %d", pass, len(seen), keys)
			}
			seen = map[string]bool{}
			pass, want = pass+1, 0
		}
	}
}
