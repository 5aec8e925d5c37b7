package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: values below 256
// are exact, larger ones fall into buckets 1/128 of their power of two wide
// (under 0.8% relative error). Quantiles interpolate inside the bucket, so
// they vary continuously from run to run rather than snapping to edges.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = 2*histSub + 56*histSub
)

func bucketOf(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	return 2*histSub + (shift-1)*histSub + int(v>>shift) - histSub
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := (i-2*histSub)/histSub + 1
	top := uint64((i-2*histSub)%histSub + histSub)
	return float64(top << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}

// us converts a nanosecond quantile to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
