package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative integers (nanoseconds,
// mostly): values below 128 are exact, larger ones fall in buckets 1/64 of
// their power of two wide. Quantiles interpolate linearly inside a bucket,
// so they vary continuously from run to run instead of snapping to bucket
// edges.
type hist struct {
	n      uint64
	counts [128 + 58*64]uint64
}

func bucketOf(v int64) int {
	if v < 128 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	s := bits.Len64(uint64(v)) - 7
	return 128 + (s-1)*64 + int(v>>s) - 64
}

// bucketRange returns the low edge and width of bucket i.
func bucketRange(i int) (lo, width float64) {
	if i < 128 {
		return float64(i), 1
	}
	s := (i-128)/64 + 1
	m := (i-128)%64 + 64
	return float64(uint64(m) << s), float64(uint64(1) << s)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1), or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := bucketRange(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// median returns the median of xs (0 when empty) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
