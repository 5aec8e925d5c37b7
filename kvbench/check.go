package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/htm"
)

// Values are self-describing: "<key>|<writer>|<seq>|" then filler derived
// from (key, seq), then 16 hex digits of an FNV-1a checksum over everything
// before them. A reader can therefore verify any value it sees, and the
// writer of a key can rebuild the exact bytes it last acknowledged from the
// sequence number alone.
const (
	valueBytes = 128
	sumDigits  = 16
)

func makeValue(key string, writer int, seq uint64) []byte {
	v := make([]byte, 0, valueBytes)
	v = append(v, key...)
	v = append(v, '|')
	v = strconv.AppendInt(v, int64(writer), 10)
	v = append(v, '|')
	v = strconv.AppendUint(v, seq, 10)
	v = append(v, '|')
	x := fnvString(key) ^ seq*0x9e3779b97f4a7c15
	for len(v) < valueBytes-sumDigits {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v = append(v, 'a'+byte(x%26))
	}
	return appendSum(v)
}

func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func appendSum(v []byte) []byte {
	h := fnv.New64a()
	h.Write(v)
	return fmt.Appendf(v, "%016x", h.Sum64())
}

// parseValue checks v's framing and checksum and returns its stamped writer
// and sequence number.
func parseValue(key string, v []byte) (writer int, seq uint64, err error) {
	if len(v) != valueBytes {
		return 0, 0, fmt.Errorf("value of %q is %d bytes, want %d", key, len(v), valueBytes)
	}
	body := v[:valueBytes-sumDigits]
	if !bytes.Equal(appendSum(append([]byte(nil), body...)), v) {
		return 0, 0, fmt.Errorf("value of %q fails its checksum", key)
	}
	f := bytes.SplitN(body, []byte{'|'}, 4)
	if len(f) != 4 || string(f[0]) != key {
		return 0, 0, fmt.Errorf("value of %q is stamped for another key", key)
	}
	w, err1 := strconv.Atoi(string(f[1]))
	s, err2 := strconv.ParseUint(string(f[2]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("value of %q has a malformed stamp", key)
	}
	return w, s, nil
}

// Shadow state of one key, kept by the client that owns its writes.
type keyState uint8

const (
	absent  keyState = iota
	present          // holds the value stamped with shadow.seq
	unknown          // a write failed: either outcome is acceptable
)

type shadowEntry struct {
	state keyState
	seq   uint64
}

// keyspace assigns each key an owner: key i is written only by client
// i % owners, so the owner's shadow is the exact expected state of the key.
type keyspace struct {
	keys   []string
	index  map[string]int
	owners int
}

func newKeyspace(n, owners int) *keyspace {
	ks := &keyspace{keys: make([]string, n), index: make(map[string]int, n), owners: owners}
	for i := range ks.keys {
		ks.keys[i] = fmt.Sprintf("k%06d", i)
		ks.index[ks.keys[i]] = i
	}
	return ks
}

func (ks *keyspace) owner(i int) int { return i % ks.owners }

var errWrong = errors.New("correctness check failed")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// reader is the per-client verification state: the client's own shadow
// (indexed by key; only owned keys are meaningful) and the newest sequence
// it has read for every key, which must never go backwards because each key
// has a single sequential writer and every read is one transaction.
type reader struct {
	id     int
	ks     *keyspace
	shadow []shadowEntry
	seen   []uint64
}

func newReader(id int, ks *keyspace) *reader {
	return &reader{id: id, ks: ks, shadow: make([]shadowEntry, len(ks.keys)), seen: make([]uint64, len(ks.keys))}
}

// checkRead verifies one value read for key (found=false: the key was
// absent).
func (r *reader) checkRead(key string, val []byte, found bool) error {
	i, ok := r.ks.index[key]
	if !ok {
		return wrongf("read returned unknown key %q", key)
	}
	own := r.ks.owner(i) == r.id
	sh := r.shadow[i]
	if !found {
		if own && sh.state == present {
			return wrongf("client %d: own key %q missing, acknowledged seq %d", r.id, key, sh.seq)
		}
		return nil
	}
	w, seq, err := parseValue(key, val)
	if err != nil {
		return wrongf("client %d: %v", r.id, err)
	}
	if w != r.ks.owner(i) {
		return wrongf("client %d: key %q stamped by writer %d, owner is %d", r.id, key, w, r.ks.owner(i))
	}
	if seq < r.seen[i] {
		return wrongf("client %d: key %q went back from seq %d to %d", r.id, key, r.seen[i], seq)
	}
	r.seen[i] = seq
	if own {
		switch {
		case sh.state == absent:
			return wrongf("client %d: own key %q present (seq %d) after its delete", r.id, key, seq)
		case sh.state == present && seq != sh.seq:
			return wrongf("client %d: own key %q has seq %d, acknowledged %d", r.id, key, seq, sh.seq)
		}
	}
	return nil
}

// checkDelete verifies a delete's "existed" answer for an owned key.
func (r *reader) checkDelete(i int, existed bool) error {
	sh := r.shadow[i]
	if sh.state == unknown {
		return nil
	}
	if existed != (sh.state == present) {
		return wrongf("client %d: delete of %q reported existed=%v, shadow says %v", r.id, r.ks.keys[i], existed, sh.state == present)
	}
	return nil
}

// checkFinal compares a full listing of the store with the union of the
// owners' shadows: every acknowledged write present with its exact bytes,
// every acknowledged delete absent, and nothing else. It returns the live
// key+value bytes of the listing.
func checkFinal(got map[string][]byte, ks *keyspace, readers []*reader) (int64, error) {
	var live int64
	for k, v := range got {
		i, ok := ks.index[k]
		if !ok {
			return 0, wrongf("store holds unknown key %q", k)
		}
		live += int64(len(k) + len(v))
		sh := readers[ks.owner(i)].shadow[i]
		switch sh.state {
		case absent:
			return 0, wrongf("deleted key %q is present", k)
		case present:
			if want := makeValue(k, ks.owner(i), sh.seq); !bytes.Equal(v, want) {
				return 0, wrongf("key %q holds %.40q..., acknowledged %.40q...", k, v, want)
			}
		case unknown:
			if w, _, err := parseValue(k, v); err != nil || w != ks.owner(i) {
				return 0, wrongf("key %q after a failed write holds a foreign value", k)
			}
		}
	}
	for i, k := range ks.keys {
		if sh := readers[ks.owner(i)].shadow[i]; sh.state == present {
			if _, ok := got[k]; !ok {
				return 0, wrongf("acknowledged write of %q (seq %d) is missing", k, sh.seq)
			}
		}
	}
	return live, nil
}

// checkSweep verifies a quiescent heap: no metadata lock or fallback tag
// left behind, and the allocator's census agreeing with the live counter.
func checkSweep(ms htm.MetaSweep, liveWords uint64) error {
	if ms.Locked != 0 || ms.FallbackTagged != 0 || ms.StripeErrors != 0 {
		return wrongf("heap not quiescent: %d locked, %d fallback-tagged, %d stripe errors",
			ms.Locked, ms.FallbackTagged, ms.StripeErrors)
	}
	if ms.Allocated != liveWords {
		return wrongf("heap census %d allocated words, live counter %d", ms.Allocated, liveWords)
	}
	return nil
}
