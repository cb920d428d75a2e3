package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/tm"
)

// epoch anchors every span timestamp on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call, in nanoseconds since epoch.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// spanRing is one goroutine's in-memory span record. It is single-writer
// and preallocated, so recording never allocates inside a measured window;
// when full it keeps the newest spans.
type spanRing struct {
	s []span
	n int // spans ever recorded
	_ [64]byte
}

// ringCap bounds a ring at 32 MiB: twenty seconds of one fit client on a
// two-core host, and a whole traced window.
const ringCap = 1 << 21

func newSpanRing() *spanRing { return &spanRing{s: make([]span, ringCap)} }

func (r *spanRing) add(start, end int64) {
	r.s[r.n&(ringCap-1)] = span{start, end}
	r.n++
}

// at returns the i-th span ever recorded; i must be among the newest
// ringCap.
func (r *spanRing) at(i int) span { return r.s[i&(ringCap-1)] }

// first is the index of the oldest span still held.
func (r *spanRing) first() int { return max(0, r.n-ringCap) }

func (r *spanRing) reset() { r.n = 0 }

// spanSys wraps a system and records one span per Atomic call into the
// calling thread's ring. Spans go around Atomic only, never inside a
// transaction body, so the body stays as pure as the caller wrote it.
type spanSys struct {
	tm.System
	atomic []*spanRing // per tm thread id
}

func newSpanSys(sys tm.System, threads int) *spanSys {
	s := &spanSys{System: sys, atomic: make([]*spanRing, threads)}
	for i := range s.atomic {
		s.atomic[i] = newSpanRing()
	}
	return s
}

// Atomic implements tm.System.
func (s *spanSys) Atomic(thread int, body func(tm.Tx)) {
	t0 := now()
	s.System.Atomic(thread, body)
	s.atomic[thread].add(t0, now())
}

func (s *spanSys) reset() {
	for _, r := range s.atomic {
		r.reset()
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
