package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/kv"
)

const (
	opGet = iota
	opPut
	opDelete
	opScan
	nOps
)

var opNames = [nOps]string{"get", "put", "delete", "scan"}

// scanLimit is the page size of SCAN operations (kvload's default).
const scanLimit = 32

// backend is how a client reaches the store: over HTTP or by direct calls.
// Each method returns the latency of the call itself. An error wrapping
// errWrong is a correctness violation; any other error is a failed
// operation (transport error, 5xx, ErrDeadline, ErrFull).
type backend interface {
	get(c *client, key string) (time.Duration, []byte, bool, error)
	put(c *client, key string, val []byte) (time.Duration, error)
	del(c *client, key string) (time.Duration, bool, error)
	scan(c *client, cursor uint64) (time.Duration, []kv.Pair, uint64, bool, error)
}

// window holds one client's measurements for one window of the run.
type window struct {
	lat       [nOps]hist
	ops       int
	failed    int
	userBytes int64 // key+value bytes of acknowledged mutations
}

// client is one closed-loop load lane: it issues an operation, waits for
// the answer, verifies it, and issues the next.
type client struct {
	*reader
	rng     *rand.Rand
	mix     [nOps]int
	nextSeq uint64
	cursor  uint64
	hc      *http.Client // HTTP workloads only
	spanID  uint64       // the current request's span id, 0 when untraced
	windows []window
	spans   []span
}

func newClient(id int, ks *keyspace, seed int64, mix [nOps]int) *client {
	return &client{
		reader:  newReader(id, ks),
		rng:     rand.New(rand.NewPCG(uint64(seed), uint64(id)+1)),
		mix:     mix,
		nextSeq: 1,
	}
}

func (c *client) pickOp() int {
	roll := c.rng.IntN(100)
	for op, pct := range c.mix {
		if roll < pct {
			return op
		}
		roll -= pct
	}
	return opGet
}

// ownKey picks a key this client owns.
func (c *client) ownKey() int {
	n := c.ks.owners
	own := (len(c.ks.keys) - c.id + n - 1) / n
	return c.rng.IntN(own)*n + c.id
}

// preload writes each owned key with probability put/(put+delete), the
// share of owned keys the mix keeps live, so the run starts near its
// steady state.
func (c *client) preload(b backend) error {
	n := c.ks.owners
	for i := c.id; i < len(c.ks.keys); i += n {
		if c.rng.IntN(c.mix[opPut]+c.mix[opDelete]) >= c.mix[opPut] {
			continue
		}
		if _, _, err := c.put(b, i); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// put writes the next version of owned key i and records it in the shadow.
// It returns the call's latency and the user bytes written.
func (c *client) put(b backend, i int) (time.Duration, int64, error) {
	key := c.ks.keys[i]
	seq := c.nextSeq
	c.nextSeq++
	val := makeValue(key, c.id, seq)
	lat, err := b.put(c, key, val)
	if err != nil {
		c.shadow[i] = shadowEntry{state: unknown}
		return lat, 0, err
	}
	c.shadow[i] = shadowEntry{state: present, seq: seq}
	return lat, int64(len(key) + len(val)), nil
}

// run drives the loop until end, discarding measurements before t0 and
// filing the rest into windows of length win.
func (c *client) run(b backend, tr *tracer, t0, end time.Time, win time.Duration) error {
	var seq uint64
	for {
		start := time.Now()
		if !start.Before(end) {
			return nil
		}
		op := c.pickOp()
		c.spanID = 0
		traced := tr.on(start)
		if traced {
			seq++
			c.spanID = uint64(c.id+1)<<48 | seq
		}
		lat, user, err := c.do(b, op)
		if errors.Is(err, errWrong) {
			return err
		}
		if start.Before(t0) {
			continue
		}
		w := &c.windows[int(start.Sub(t0)/win)]
		w.ops++
		if err != nil {
			w.failed++
			continue
		}
		w.lat[op].add(lat)
		w.userBytes += user
		if traced && len(c.spans) < maxSpans {
			s := tr.ns(start)
			c.spans = append(c.spans, span{id: c.spanID, kind: spanClient, op: uint8(op), start: s, end: s + int64(lat)})
		}
	}
}

// do issues one operation and verifies its answer. It returns the call's
// latency and the user bytes an acknowledged mutation wrote.
func (c *client) do(b backend, op int) (time.Duration, int64, error) {
	switch op {
	case opGet:
		key := c.ks.keys[c.rng.IntN(len(c.ks.keys))]
		lat, val, found, err := b.get(c, key)
		if err != nil {
			return lat, 0, err
		}
		return lat, 0, c.checkRead(key, val, found)
	case opPut:
		return c.put(b, c.ownKey())
	case opDelete:
		i := c.ownKey()
		key := c.ks.keys[i]
		lat, existed, err := b.del(c, key)
		if err != nil {
			c.shadow[i] = shadowEntry{state: unknown}
			return lat, 0, err
		}
		err = c.checkDelete(i, existed)
		c.shadow[i] = shadowEntry{state: absent}
		return lat, int64(len(key)), err
	default:
		// Follow the server's cursor and wrap when the table is done, so
		// every SCAN reads a real page.
		lat, pairs, next, done, err := b.scan(c, c.cursor)
		if err != nil {
			return lat, 0, err
		}
		for _, p := range pairs {
			if err := c.checkRead(string(p.Key), p.Value, true); err != nil {
				return lat, 0, err
			}
		}
		if done {
			next = 0
		}
		c.cursor = next
		return lat, 0, nil
	}
}

// storeBackend calls kv.Store directly.
type storeBackend struct{ s *kv.Store }

// storeErr sorts a Store error into a failed operation or a wrong answer.
func storeErr(err error) error {
	if err == nil || errors.Is(err, kv.ErrDeadline) || errors.Is(err, kv.ErrFull) || errors.Is(err, kv.ErrDurability) {
		return err
	}
	return wrongf("store: %v", err)
}

func (b storeBackend) get(c *client, key string) (time.Duration, []byte, bool, error) {
	k := []byte(key)
	start := time.Now()
	val, ok, err := b.s.Get(context.Background(), k)
	return time.Since(start), val, ok, storeErr(err)
}

func (b storeBackend) put(c *client, key string, val []byte) (time.Duration, error) {
	k := []byte(key)
	start := time.Now()
	err := b.s.Put(context.Background(), k, val, 0)
	return time.Since(start), storeErr(err)
}

func (b storeBackend) del(c *client, key string) (time.Duration, bool, error) {
	k := []byte(key)
	start := time.Now()
	existed, err := b.s.Delete(context.Background(), k)
	return time.Since(start), existed, storeErr(err)
}

func (b storeBackend) scan(c *client, cursor uint64) (time.Duration, []kv.Pair, uint64, bool, error) {
	start := time.Now()
	pairs, next, err := b.s.Scan(context.Background(), cursor, scanLimit)
	return time.Since(start), pairs, next, next >= b.s.Slots(), storeErr(err)
}

// httpBackend talks to kv.Server over loopback HTTP, one keep-alive
// connection per client.
type httpBackend struct{ base string }

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// call runs one request and reads the whole answer; the latency ends when
// the last body byte has arrived. 5xx answers are failed operations.
func (b httpBackend) call(c *client, method, path string, body []byte) (time.Duration, int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, b.base+path, rd)
	if err != nil {
		return 0, 0, nil, wrongf("build request: %v", err)
	}
	if c.spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(c.spanID, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return time.Since(start), 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return lat, 0, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode >= 500 {
		return lat, resp.StatusCode, nil, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return lat, resp.StatusCode, data, nil
}

func (b httpBackend) get(c *client, key string) (time.Duration, []byte, bool, error) {
	lat, code, data, err := b.call(c, http.MethodGet, "/kv/"+key, nil)
	switch {
	case err != nil:
		return lat, nil, false, err
	case code == http.StatusOK:
		return lat, data, true, nil
	case code == http.StatusNotFound:
		return lat, nil, false, nil
	}
	return lat, nil, false, wrongf("GET %s: status %d", key, code)
}

func (b httpBackend) put(c *client, key string, val []byte) (time.Duration, error) {
	lat, code, _, err := b.call(c, http.MethodPut, "/kv/"+key, val)
	if err == nil && code != http.StatusNoContent {
		err = wrongf("PUT %s: status %d", key, code)
	}
	return lat, err
}

func (b httpBackend) del(c *client, key string) (time.Duration, bool, error) {
	lat, code, _, err := b.call(c, http.MethodDelete, "/kv/"+key, nil)
	switch {
	case err != nil:
		return lat, false, err
	case code == http.StatusNoContent:
		return lat, true, nil
	case code == http.StatusNotFound:
		return lat, false, nil
	}
	return lat, false, wrongf("DELETE %s: status %d", key, code)
}

type scanPage struct {
	Pairs []kv.Pair `json:"pairs"`
	Next  uint64    `json:"next"`
	Done  bool      `json:"done"`
}

func (b httpBackend) scan(c *client, cursor uint64) (time.Duration, []kv.Pair, uint64, bool, error) {
	path := "/scan?cursor=" + strconv.FormatUint(cursor, 10) + "&limit=" + strconv.Itoa(scanLimit)
	lat, code, data, err := b.call(c, http.MethodGet, path, nil)
	if err != nil {
		return lat, nil, 0, false, err
	}
	var page scanPage
	if code != http.StatusOK {
		return lat, nil, 0, false, wrongf("GET %s: status %d", path, code)
	}
	if err := json.Unmarshal(data, &page); err != nil {
		return lat, nil, 0, false, wrongf("GET %s: %v", path, err)
	}
	return lat, page.Pairs, page.Next, page.Done, nil
}
