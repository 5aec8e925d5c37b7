package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/htm"
	"repro/kv"
)

func TestValueRoundTrip(t *testing.T) {
	v := makeValue("k000042", 1, 77)
	if len(v) != valueBytes {
		t.Fatalf("value is %d bytes, want %d", len(v), valueBytes)
	}
	w, seq, err := parseValue("k000042", v)
	if err != nil || w != 1 || seq != 77 {
		t.Fatalf("parseValue = %d, %d, %v; want 1, 77, nil", w, seq, err)
	}
}

// A GET answer that differs from what was written in any way must fail the
// run: a flipped filler byte, a value stamped for another key, a value from
// the wrong writer, a stale version of an own key, or a read going back in
// time.
func TestTamperedGetIsCaught(t *testing.T) {
	ks := newKeyspace(4, 2) // client 0 owns k000000 and k000002
	fresh := func() *reader {
		r := newReader(0, ks)
		r.shadow[0] = shadowEntry{state: present, seq: 5}
		return r
	}
	if err := fresh().checkRead("k000000", makeValue("k000000", 0, 5), true); err != nil {
		t.Fatalf("untouched value rejected: %v", err)
	}

	flipped := makeValue("k000000", 0, 5)
	flipped[60] ^= 1
	stale := fresh()
	stale.shadow[0].seq = 6
	regress := fresh()
	regress.seen[1] = 9

	cases := []struct {
		name  string
		r     *reader
		key   string
		val   []byte
		found bool
	}{
		{"flipped byte", fresh(), "k000000", flipped, true},
		{"other key's value", fresh(), "k000000", makeValue("k000002", 0, 5), true},
		{"wrong writer", fresh(), "k000000", makeValue("k000000", 1, 5), true},
		{"stale own value", stale, "k000000", makeValue("k000000", 0, 5), true},
		{"own write missing", fresh(), "k000000", nil, false},
		{"read went back", regress, "k000001", makeValue("k000001", 1, 8), true},
		{"truncated", fresh(), "k000000", makeValue("k000000", 0, 5)[:100], true},
		{"unknown key", fresh(), "zzz", makeValue("zzz", 0, 5), true},
	}
	for _, tc := range cases {
		if err := tc.r.checkRead(tc.key, tc.val, tc.found); !errors.Is(err, errWrong) {
			t.Errorf("%s: checkRead = %v, want a correctness failure", tc.name, err)
		}
	}

	deleted := fresh()
	deleted.shadow[0] = shadowEntry{state: absent}
	if err := deleted.checkRead("k000000", makeValue("k000000", 0, 5), true); !errors.Is(err, errWrong) {
		t.Errorf("value of a deleted own key accepted: %v", err)
	}
	if err := deleted.checkDelete(0, true); !errors.Is(err, errWrong) {
		t.Errorf("delete of an absent key reported existed: %v", err)
	}
}

func TestCheckFinal(t *testing.T) {
	ks := newKeyspace(4, 2)
	readers := []*reader{newReader(0, ks), newReader(1, ks)}
	readers[0].shadow[0] = shadowEntry{state: present, seq: 3}
	readers[1].shadow[1] = shadowEntry{state: present, seq: 4}
	readers[0].shadow[2] = shadowEntry{state: absent}
	good := func() map[string][]byte {
		return map[string][]byte{"k000000": makeValue("k000000", 0, 3), "k000001": makeValue("k000001", 1, 4)}
	}
	if live, err := checkFinal(good(), ks, readers); err != nil || live != 2*(7+valueBytes) {
		t.Fatalf("checkFinal(good) = %d, %v", live, err)
	}
	missing := good()
	delete(missing, "k000001")
	resurrected := good()
	resurrected["k000002"] = makeValue("k000002", 0, 1)
	old := good()
	old["k000000"] = makeValue("k000000", 0, 2)
	stranger := good()
	stranger["x"] = []byte("y")
	for name, got := range map[string]map[string][]byte{
		"missing write": missing, "resurrected delete": resurrected, "old version": old, "unknown key": stranger,
	} {
		if _, err := checkFinal(got, ks, readers); !errors.Is(err, errWrong) {
			t.Errorf("%s: checkFinal = %v, want a correctness failure", name, err)
		}
	}
}

// A write that was acknowledged before Close but is gone after the re-Open
// must fail the durable check. The loss is made by deleting the key behind
// the owner's back, so its shadow still says present.
func TestMissingWriteAfterReopenIsCaught(t *testing.T) {
	dur := &kv.Durability{Dir: t.TempDir(), SnapshotEvery: 16}
	ks := newKeyspace(64, 2)
	open := func() *kv.Store {
		s, err := kv.Open(kv.Config{Slots: 256, Durability: dur})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	clients := []*client{newClient(0, ks, 1, [nOps]int{0, 70, 30, 0}), newClient(1, ks, 1, [nOps]int{0, 70, 30, 0})}
	readers := []*reader{clients[0].reader, clients[1].reader}
	for _, c := range clients {
		if err := c.preload(storeBackend{s}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reopen(dur, ks, readers); err != nil {
		t.Fatalf("intact store rejected: %v", err)
	}

	victim := -1
	for i := range ks.keys {
		if readers[ks.owner(i)].shadow[i].state == present {
			victim = i
			break
		}
	}
	s = open()
	if _, err := s.Delete(t.Context(), []byte(ks.keys[victim])); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reopen(dur, ks, readers); !errors.Is(err, errWrong) {
		t.Fatalf("lost acknowledged write of %s not caught: %v", ks.keys[victim], err)
	}
}

func TestLeakedLockIsCaught(t *testing.T) {
	s := kv.NewStore(kv.Config{Slots: 64})
	if err := s.Put(t.Context(), []byte("a"), []byte("b"), 0); err != nil {
		t.Fatal(err)
	}
	clean := s.Heap().SweepMeta()
	live := s.Heap().Stats().LiveWords
	if err := checkSweep(clean, live); err != nil {
		t.Fatalf("quiescent heap rejected: %v", err)
	}
	for name, ms := range map[string]htm.MetaSweep{
		"leaked lock":         {Allocated: clean.Allocated, Locked: 1},
		"leaked fallback tag": {Allocated: clean.Allocated, FallbackTagged: 1},
		"stripe error":        {Allocated: clean.Allocated, StripeErrors: 1},
		"leaked block":        {Allocated: clean.Allocated + 1},
	} {
		if err := checkSweep(ms, live); !errors.Is(err, errWrong) {
			t.Errorf("%s: checkSweep = %v, want a correctness failure", name, err)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.add(time.Duration(i))
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
}

// BENCHMARK.json must list exactly the metrics and workloads this program
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in program", i, w.Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		json []struct{ Name, Unit string }
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.json) != len(set.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(set.json), len(set.prog))
		}
		for i, m := range set.json {
			if m.Name != set.prog[i].name || m.Unit != set.prog[i].unit {
				t.Errorf("metric %d: %s [%s] in BENCHMARK.json, %s [%s] in program", i, m.Name, m.Unit, set.prog[i].name, set.prog[i].unit)
			}
		}
	}
}
