package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench/nrmw"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/tm"
	"repro/internal/trace"
)

// setupReps is how many times an untraced nrmw run builds its system;
// setup_s is the median of those builds (see setups).
const setupReps = 15

// nrmwInst is one built nrmw workload.
type nrmwInst struct {
	sys   tm.System
	spans *spanSys // non-nil when Atomic spans are recorded
	bench *nrmw.Bench
	plane *plane
	sink  *trace.Sink
	src   mem.Addr // located source array (see setupNRMW)
	dst   mem.Addr
}

func setupNRMW(w workload, seed int64, traced bool) *nrmwInst {
	o := buildOptions(w.shape.MemWords(), seed)
	in := &nrmwInst{}
	switch {
	case w.observed:
		in.plane = newPlane(&o)
		in.sink = in.plane.sink
	case traced:
		in.sink = trace.NewSink(0)
		o.Trace = in.sink
	}
	in.sys = harness.Build(system, o)
	target := in.sys
	if traced {
		in.spans = newSpanSys(in.sys, clients)
		target = in.spans
	}
	// nrmw.New allocates src then dst with AllocAligned right after the
	// current cursor; a one-word Alloc reveals the cursor. checkArrays
	// verifies the located arrays before the first op, so a layout change
	// in nrmw fails the run rather than passing it silently.
	cursor := in.sys.Memory().Alloc(1) + 1
	in.src = alignLine(cursor)
	in.dst = alignLine(in.src + mem.Addr(w.shape.ArraySize))
	in.bench = nrmw.New(target, clients, w.shape)
	if in.plane != nil {
		in.plane.flight.Start()
	}
	return in
}

func alignLine(a mem.Addr) mem.Addr { return (a + mem.LineWords - 1) / mem.LineWords * mem.LineWords }

func (in *nrmwInst) close() {
	if in.plane != nil {
		in.plane.flight.Stop()
	}
}

// client is one closed-loop load generator owning tm thread id.
type client struct {
	id  int
	rng *rand.Rand
	ops *spanRing
}

func newClients(seed int64) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{id: i, rng: rand.New(rand.NewSource(seed*7919 + int64(i))), ops: newSpanRing()}
	}
	return cs
}

// window is one closed-loop interval of an nrmw instance.
type window struct {
	sl       slices
	ops      uint64
	delta    counters
	sampleNs []float64
}

// run drives one goroutine per client for d, cut into slices of sliceLen.
// When sample is set it also times obs.Registry.Sample on the live
// registry every 10ms from a third goroutine.
func (in *nrmwInst) run(cs []*client, d time.Duration, sample bool) window {
	var (
		stop   atomic.Bool
		wg     sync.WaitGroup
		counts = make([]uint64, len(cs))
		win    window
		steal  = openStealClock()
		n      = max(1, int(d/sliceLen))
	)
	defer steal.close()
	win.sl.s = make([]slice, 0, n)
	if sample {
		win.sampleNs = make([]float64, 0, 1<<14)
	}
	before := readCounters(in.sys)
	start := now()
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			var ops uint64
			for !stop.Load() {
				t0 := now()
				in.bench.Op(c.id, c.rng)
				c.ops.add(t0, now())
				ops++
			}
			counts[i] = ops
		}(i, c)
	}
	if sample {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var snap obs.Snapshot
			for !stop.Load() && len(win.sampleNs) < cap(win.sampleNs) {
				t0 := now()
				in.plane.reg.Sample(&snap)
				win.sampleNs = append(win.sampleNs, float64(now()-t0))
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}
	prev := slice{end: start, commits: in.sys.Stats().Snapshot().Commits(), steal: steal.ticks()}
	for k := 1; k <= n; k++ {
		time.Sleep(time.Duration(start + int64(d)*int64(k)/int64(n) - now()))
		cur := slice{end: now(), commits: in.sys.Stats().Snapshot().Commits(), steal: steal.ticks()}
		win.sl.s = append(win.sl.s, slice{start: prev.end, end: cur.end,
			commits: cur.commits - prev.commits, steal: cur.steal - prev.steal})
		prev = cur
	}
	stop.Store(true)
	wg.Wait()
	win.delta = readCounters(in.sys).sub(before)
	for _, c := range counts {
		win.ops += c
	}
	win.sl.markClean()
	return win
}

func measureNRMW(w workload, seed int64, d time.Duration, traced bool) result {
	var r result
	reps := setupReps
	if traced {
		reps = 1
	}
	var in *nrmwInst
	steal := openStealClock()
	for i := 0; i < reps; i++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		st, t0 := steal.ticks(), time.Now()
		in = setupNRMW(w, seed, traced)
		r.setup.add(time.Since(t0), steal.ticks()-st)
	}
	steal.close()
	defer in.close()
	r.sink = in.sink

	checkArrays(&r, in, w.shape, true)
	cs := newClients(seed)
	warm := in.run(cs, warmup(d), false)
	checkOnce(&r, "warm-up", warm)
	for _, c := range cs {
		c.ops.reset()
	}
	if in.spans != nil {
		in.spans.reset()
	}
	win := in.run(cs, d, traced && in.plane != nil)
	checkOnce(&r, "window", win)
	checkArrays(&r, in, w.shape, false)

	r.sl, r.ops, r.delta, r.sampleNs = win.sl, win.ops, win.delta, win.sampleNs
	for _, c := range cs {
		for i := c.ops.first(); i < c.ops.n; i++ {
			if sp := c.ops.at(i); r.sl.covers(sp) {
				r.latNs = append(r.latNs, float64(sp.dur()))
			}
		}
		if in.spans != nil {
			pairSpans(&r.spans, c.ops, in.spans.atomic[c.id])
		}
	}
	return r
}

// checkOnce checks exactly-once commit: every workload op committed one
// transaction and nothing else committed.
func checkOnce(r *result, what string, win window) {
	r.attempted += win.ops
	if c := win.delta.tm.Commits(); c != win.ops {
		diff := max(c, win.ops) - min(c, win.ops)
		r.fail(min(diff, win.ops), "%s: %d ops but %d commits", what, win.ops, c)
	}
}

// checkArrays checks the nrmw arrays: src holds i+1 at element i, and
// every dst word is either untouched or a value the writer's reads allow.
// The writer of element k is the client owning k's slice of the array; it
// writes acc+j with j < M, where acc sums N source values of that slice.
// Before the first op (fresh) every dst word must be untouched.
func checkArrays(r *result, in *nrmwInst, cfg nrmw.Config, fresh bool) {
	m := in.sys.Memory()
	var bad uint64
	for i := 0; i < cfg.ArraySize; i++ {
		if m.Load(in.src+mem.Addr(i)) != uint64(i)+1 {
			bad++
		}
	}
	chunk := cfg.ArraySize / clients
	n, mw := uint64(cfg.N), uint64(cfg.M)
	in.bench.VerifyDst(func(i int, v uint64) bool {
		base := uint64(i / chunk * chunk)
		if fresh || v < n*(base+1) || v > n*(base+uint64(chunk))+mw-1 {
			bad++
		}
		return true
	})
	if bad > 0 {
		r.fail(max(1, min(bad, r.attempted)), "nrmw arrays: %d bad words (fresh=%v)", bad, fresh)
	}
}

// pairSpans matches each op span with the Atomic span recorded by the same
// client: exactly one per op, nested inside it.
func pairSpans(s *spanStats, ops, atomics *spanRing) {
	if ops.n != atomics.n {
		s.misnested += uint64(max(ops.n, atomics.n) - min(ops.n, atomics.n))
		return
	}
	for i := ops.first(); i < ops.n; i++ {
		o, a := ops.at(i), atomics.at(i)
		if a.start < o.start || a.end > o.end {
			s.misnested++
			continue
		}
		s.opNs = append(s.opNs, float64(o.dur()))
		s.atomicNs = append(s.atomicNs, float64(a.dur()))
		s.selfNs = append(s.selfNs, float64(o.dur()-a.dur()))
		s.opSum += float64(o.dur())
		s.coveredSum += float64(a.dur())
	}
}
