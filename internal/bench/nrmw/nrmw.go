// Package nrmw implements the N-Reads M-Writes micro-benchmark from the
// RSTM suite, used by the paper for Figure 3.
//
// Each transaction reads N elements from a source array and writes M
// elements to a destination array, both of a fixed size (100k elements in
// the paper). Accesses are disjoint across threads — each thread owns a
// slice of the index space — so aborts from true conflicts are minimized
// and the resource-limitation behaviour is isolated, exactly as the paper
// configures it.
//
// Three shapes reproduce the three sub-figures:
//
//   - Figure 3(a): N = M = 10 — everything fits in hardware.
//   - Figure 3(b): N = 100k, M = 100 — a read-dominated workload whose read
//     set exceeds the L1 but survives in hardware until shared-cache
//     pressure (beyond 8 threads) evicts it.
//   - Figure 3(c): IterMode — N iterations of {read, floating-point work,
//     write the same entry of the destination}, long in time rather than
//     space, partitioned every PartitionEvery iterations (25 in the paper).
package nrmw

import (
	"math/rand"

	"repro/internal/mem"
	"repro/internal/tm"
)

// Config describes one N-Reads M-Writes shape.
type Config struct {
	// ArraySize is the element count of the source and destination arrays.
	ArraySize int
	// N is the number of reads per transaction; M the number of writes.
	N, M int
	// IterMode switches to the Figure 3(c) shape: N iterations of
	// {read src[i], Work(WorkPerIter), write dst[i]}; M is ignored.
	IterMode bool
	// WorkPerIter is the transactional computation (cycles) between the
	// read and the write of an iteration (IterMode only).
	WorkPerIter int64
	// PartitionEvery inserts a partition point (tm.Tx.Pause) after this
	// many operations (reads in normal mode, iterations in IterMode);
	// zero disables partitioning.
	PartitionEvery int
}

// Fig3a returns the Figure 3(a) configuration: N=M=10 on 100k elements.
func Fig3a() Config {
	return Config{ArraySize: 100_000, N: 10, M: 10, PartitionEvery: 5}
}

// Fig3b returns the Figure 3(b) configuration: 100k reads, 100 writes.
func Fig3b() Config {
	return Config{ArraySize: 100_000, N: 100_000, M: 100, PartitionEvery: 8192}
}

// Fig3c returns the Figure 3(c) configuration: 100 iterations of
// read+work+write, partitioned every 25 (four sub-transactions, as in the
// paper).
func Fig3c() Config {
	return Config{ArraySize: 100_000, N: 100, IterMode: true, WorkPerIter: 1800, PartitionEvery: 25}
}

// Bench is an instantiated N-Reads M-Writes benchmark bound to a system.
type Bench struct {
	sys     tm.System
	cfg     Config
	threads int
	src     mem.Addr
	dst     mem.Addr
	workers []worker
}

// worker is one thread's reusable operation state — its index scratch and
// the transaction body bound to it — so that Op allocates nothing and the
// driver's cost is not billed to the TM under test.
type worker struct {
	readIdx  []int
	writeIdx []int
	body     func(tm.Tx)
}

// New allocates the arrays in the system's memory and returns the bench.
// threads is the maximum number of concurrent threads (for the disjoint
// index partitioning); Op accepts thread ids in [0, threads).
func New(sys tm.System, threads int, cfg Config) *Bench {
	m := sys.Memory()
	b := &Bench{
		sys:     sys,
		cfg:     cfg,
		threads: threads,
		src:     m.AllocAligned(cfg.ArraySize),
		dst:     m.AllocAligned(cfg.ArraySize),
		workers: make([]worker, threads),
	}
	for i := 0; i < cfg.ArraySize; i++ {
		m.Store(b.src+mem.Addr(i), uint64(i)+1)
	}
	for i := range b.workers {
		b.bind(&b.workers[i])
	}
	return b
}

// bind builds w's index scratch and its transaction body over it.
func (b *Bench) bind(w *worker) {
	pe := b.cfg.PartitionEvery
	w.readIdx = make([]int, b.cfg.N)
	if b.cfg.IterMode {
		// The Figure 3(c) shape: read src[k], compute, write dst[k].
		work := b.cfg.WorkPerIter
		w.body = func(x tm.Tx) {
			for i, k := range w.readIdx {
				v := x.Read(b.src + mem.Addr(k))
				x.Work(work)
				x.Write(b.dst+mem.Addr(k), v+1)
				if pe > 0 && (i+1)%pe == 0 && i+1 < len(w.readIdx) {
					x.Pause()
				}
			}
		}
		return
	}
	w.writeIdx = make([]int, b.cfg.M)
	w.body = func(x tm.Tx) {
		var acc uint64
		for i, k := range w.readIdx {
			acc += x.Read(b.src + mem.Addr(k))
			if pe > 0 && (i+1)%pe == 0 {
				x.Pause()
			}
		}
		for i, k := range w.writeIdx {
			x.Write(b.dst+mem.Addr(k), acc+uint64(i))
			if pe > 0 && (i+1)%pe == 0 {
				x.Pause()
			}
		}
	}
}

// MemWords returns the simulated-memory footprint (words) a Config needs,
// for sizing the memory before the system is created.
func (c Config) MemWords() int { return 2*c.ArraySize + 4*mem.LineWords }

// indices fills idx with distinct element indices from the calling thread's
// disjoint slice of the array.
func (b *Bench) indices(thread int, rng *rand.Rand, idx []int) {
	chunk := b.cfg.ArraySize / b.threads
	if chunk < len(idx) {
		chunk = len(idx) // degenerate config: allow overlap rather than loop forever
	}
	base := (thread * chunk) % (b.cfg.ArraySize - chunk + 1)
	if len(idx) >= chunk {
		// Dense: take the whole chunk in order (the Figure 3(b) shape reads
		// every element of the thread's slice).
		for i := range idx {
			idx[i] = base + i%chunk
		}
		return
	}
	for i := range idx {
		idx[i] = base + rng.Intn(chunk)
	}
}

// Op executes one transaction on behalf of thread.
func (b *Bench) Op(thread int, rng *rand.Rand) {
	w := &b.workers[thread]
	b.indices(thread, rng, w.readIdx)
	if !b.cfg.IterMode {
		b.indices(thread, rng, w.writeIdx)
	}
	b.sys.Atomic(thread, w.body)
}

// VerifyDst checks that every written destination slot carries a plausible
// value (IterMode writes src[k]+1 = k+2 into dst[k]); used by tests.
func (b *Bench) VerifyDst(check func(i int, v uint64) bool) bool {
	m := b.sys.Memory()
	for i := 0; i < b.cfg.ArraySize; i++ {
		v := m.Load(b.dst + mem.Addr(i))
		if v != 0 && !check(i, v) {
			return false
		}
	}
	return true
}
