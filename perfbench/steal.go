package main

import (
	"bytes"
	"os"
	"sort"
	"time"
)

// Steal filtering.
//
// On a virtual machine the hypervisor runs other guests on this guest's
// CPUs from time to time: the "steal" column of /proc/stat. A stolen slice
// stops one client; on Part-HTM's lock-based paths the other client then
// waits for it, so a few stolen ticks cost far more than their share of
// throughput, and how much the host steals drifts over tens of seconds.
// The benchmark therefore cuts every measured window into short slices,
// reads the steal counter at each slice boundary, and computes rates and
// latency percentiles over the clean slices only: those with no steal
// whose predecessor had none either (a stall leaves a convoy behind it).
// On a host without steal accounting every slice is clean.

// sliceLen is the length of one slice of an nrmw window. /proc/stat counts
// steal in 10ms ticks, so a 50ms slice resolves it on two CPUs.
const sliceLen = 50 * time.Millisecond

// stealClock reads the machine-wide steal counter.
type stealClock struct {
	f   *os.File
	buf [256]byte
}

// openStealClock returns a clock; without /proc/stat it reads zero.
func openStealClock() *stealClock {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return &stealClock{}
	}
	return &stealClock{f: f}
}

// ticks returns the steal counter, or 0 when it cannot be read. It does
// not allocate, so it can run inside a measured window.
func (c *stealClock) ticks() uint64 {
	if c.f == nil {
		return 0
	}
	n, _ := c.f.ReadAt(c.buf[:], 0) // a short read still holds the first line
	b := c.buf[:n]
	if !bytes.HasPrefix(b, []byte("cpu ")) {
		return 0
	}
	// Fields: cpu user nice system idle iowait irq softirq steal ...
	field, inField := -1, false
	var v uint64
	for _, ch := range b {
		if ch == '\n' {
			break
		}
		if ch == ' ' {
			inField = false
			continue
		}
		if !inField {
			inField = true
			field++
		}
		switch {
		case field < 8:
		case field > 8:
			return v
		case ch < '0' || ch > '9':
			return 0
		default:
			v = v*10 + uint64(ch-'0')
		}
	}
	if field < 8 {
		return 0
	}
	return v
}

func (c *stealClock) close() {
	if c.f != nil {
		c.f.Close()
	}
}

// slice is one timed part of a measured window.
type slice struct {
	start, end int64 // ns since epoch
	commits    uint64
	steal      uint64 // ticks
}

// slices is a window's slices in time order, with their clean marks.
type slices struct {
	s     []slice
	clean []bool
}

// markClean marks the clean slices. When fewer than a tenth (and fewer
// than five) are clean the host stole throughout; the slices with the
// least steal, up to the lower quartile, are used instead.
func (sl *slices) markClean() {
	n := len(sl.s)
	sl.clean = make([]bool, n)
	kept := 0
	for k := range sl.s {
		if sl.s[k].steal == 0 && (k == 0 || sl.s[k-1].steal == 0) {
			sl.clean[k] = true
			kept++
		}
	}
	if kept >= max(5, n/10) || kept == n {
		return
	}
	steals := make([]float64, n)
	for k, s := range sl.s {
		steals[k] = float64(s.steal)
	}
	limit := quantile(steals, 0.25)
	for k, s := range sl.s {
		sl.clean[k] = float64(s.steal) <= limit
	}
}

// rate is the commit rate over the clean slices together. Pooling, rather
// than a median of slice rates, moves smoothly as the host drifts between
// faster and slower phases within a window.
func (sl *slices) rate() float64 {
	var commits uint64
	var ns int64
	for k, s := range sl.s {
		if sl.clean[k] {
			commits += s.commits
			ns += s.end - s.start
		}
	}
	return ratio(float64(commits), float64(ns)/1e9)
}

// covers reports whether sp starts and ends inside clean slices.
func (sl *slices) covers(sp span) bool {
	at := func(t int64) int {
		return sort.Search(len(sl.s), func(k int) bool { return sl.s[k].end > t })
	}
	i, j := at(sp.start), at(sp.end)
	return i < len(sl.s) && j < len(sl.s) && sl.s[i].start <= sp.start && sl.clean[i] && sl.clean[j]
}

// cleanShare is the share of slices used, in percent.
func (sl *slices) cleanShare() float64 {
	kept := 0
	for _, c := range sl.clean {
		if c {
			kept++
		}
	}
	return 100 * ratio(float64(kept), float64(len(sl.clean)))
}

// stealPct is the share of the window's CPU time the host stole, in
// percent, given USER_HZ ticks of 10ms.
func (sl *slices) stealPct(cpus int) float64 {
	var ticks uint64
	var ns int64
	for _, s := range sl.s {
		ticks += s.steal
		ns += s.end - s.start
	}
	return 100 * ratio(float64(ticks)*1e7, float64(ns)*float64(cpus))
}

// setups collects set-up times; a set-up the host stole ticks from is set
// aside while at least three clean ones exist.
type setups struct{ all, clean []float64 }

func (u *setups) add(d time.Duration, stolen uint64) {
	u.all = append(u.all, d.Seconds())
	if stolen == 0 {
		u.clean = append(u.clean, d.Seconds())
	}
}

func (u *setups) median() float64 {
	if len(u.clean) >= 3 {
		return median(u.clean)
	}
	return median(u.all)
}
