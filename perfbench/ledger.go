package main

import (
	"time"

	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/sig"
	"repro/internal/tm"
)

// The ledger prices one operation of each layer from outside: single-thread
// microloops that call the layer's public functions directly. Per-access
// costs of the htm engine and of Part-HTM are slopes: a body of ledgerK
// accesses on distinct lines minus the empty body, over ledgerK.

// ledgerK is the accesses per sloped body: well inside the write buffer,
// so every Part-HTM transaction commits on the fast path.
const ledgerK = 32

// sinkWord keeps microloop results observable.
var sinkWord uint64

// perOp times f(batch) repeatedly for budget (at least five batches) and
// returns the median nanoseconds per op.
func perOp(budget time.Duration, batch int, f func(n int)) float64 {
	var xs []float64
	deadline := time.Now().Add(budget)
	for len(xs) < 5 || time.Now().Before(deadline) {
		t0 := now()
		f(batch)
		xs = append(xs, float64(now()-t0)/float64(batch))
	}
	return median(xs)
}

// runLedger prices every layer within budget and reports the rows, plus
// the headline: what Part-HTM's fast-path instrumentation makes one
// transactional read cost relative to a bare hardware read.
func runLedger(rep *report, seed int64, budget time.Duration) {
	const items = 13
	b := budget / items
	add := func(name string, v float64) { rep.set(name, "ns", v) }

	// mem: raw simulated-memory access.
	m := mem.New(1 << 16)
	add("ledger.mem.load_ns", perOp(b, 4096, func(n int) {
		var acc uint64
		for i := 0; i < n; i++ {
			acc += m.Load(mem.Addr(mem.LineWords + i&4095))
		}
		sinkWord += acc
	}))
	add("ledger.mem.store_ns", perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			m.Store(mem.Addr(mem.LineWords+i&4095), uint64(i))
		}
	}))

	// htm: the engine alone, one hardware transaction per call.
	eng := htm.New(mem.New(1<<14), htm.DefaultConfig())
	base := eng.Memory().AllocAligned(ledgerK * mem.LineWords)
	empty := func(*htm.Txn) {}
	reads := func(t *htm.Txn) {
		for i := 0; i < ledgerK; i++ {
			t.Read(base + mem.Addr(i*mem.LineWords))
		}
	}
	writes := func(t *htm.Txn) {
		for i := 0; i < ledgerK; i++ {
			t.Write(base+mem.Addr(i*mem.LineWords), uint64(i))
		}
	}
	execute := func(body func(*htm.Txn)) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				eng.Execute(0, body)
			}
		}
	}
	htmFixed := perOp(b, 512, execute(empty))
	add("ledger.htm.begin_commit_ns", htmFixed)
	htmRead := (perOp(b, 128, execute(reads)) - htmFixed) / ledgerK
	add("ledger.htm.read_ns", htmRead)
	add("ledger.htm.write_ns", (perOp(b, 128, execute(writes))-htmFixed)/ledgerK)

	// core: Part-HTM's Atomic, as harness.Build builds it, on one thread.
	sys := harness.Build(system, harness.BuildOptions{DataWords: 1 << 12, Threads: 1, PhysCores: 4, Seed: seed})
	cbase := sys.Memory().AllocAligned(ledgerK * mem.LineWords)
	txEmpty := func(tm.Tx) {}
	txReads := func(x tm.Tx) {
		for i := 0; i < ledgerK; i++ {
			x.Read(cbase + mem.Addr(i*mem.LineWords))
		}
	}
	txWrites := func(x tm.Tx) {
		for i := 0; i < ledgerK; i++ {
			x.Write(cbase+mem.Addr(i*mem.LineWords), uint64(i))
		}
	}
	atomic := func(body func(tm.Tx)) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				sys.Atomic(0, body)
			}
		}
	}
	coreFixed := perOp(b, 512, atomic(txEmpty))
	add("ledger.core.fixed_ns", coreFixed)
	coreRead := (perOp(b, 128, atomic(txReads)) - coreFixed) / ledgerK
	add("ledger.core.read_ns", coreRead)
	add("ledger.core.write_ns", (perOp(b, 128, atomic(txWrites))-coreFixed)/ledgerK)

	// sig: Bloom-filter signature operations.
	var s1, s2 sig.Signature
	add("ledger.sig.add_ns", perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			s1.Add(uint32(i))
		}
	}))
	s1.Clear()
	s1.AddBit(1)
	s2.AddBit(2)
	add("ledger.sig.intersects_ns", perOp(b, 4096, func(n int) {
		hits := 0
		for i := 0; i < n; i++ {
			if s1.Intersects(&s2) {
				hits++
			}
		}
		sinkWord += uint64(hits)
	}))

	// ring: validation of a disjoint read signature against every entry.
	const entries = 1024
	rm := mem.New(entries*ring.EntryWords + 4*mem.LineWords)
	rg := ring.New(rm, entries)
	for ts := uint64(1); ts <= entries; ts++ {
		rg.PublishSW(ts, &s2)
	}
	add("ledger.ring.validate_ns", perOp(b, 4, func(n int) {
		for i := 0; i < n; i++ {
			if !rg.Validate(&s1, 0, entries) {
				sinkWord++
			}
		}
	})/entries)

	// exec: the kernel's retry loop around a transaction that commits on
	// its first fast attempt.
	run := exec.New(exec.Policy{FastAttempts: 1}, &tm.Stats{}, nil)
	txn := &exec.Txn{Fast: func() htm.Result { return htm.Result{Committed: true} }, Slow: func() {}}
	add("ledger.exec.run_ns", perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			run.Run(0, txn)
		}
	}))
	rep.set("ledger.instr_ratio", "x", ratio(coreRead, htmRead))
}
