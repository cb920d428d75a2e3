// Package seq provides the sequential (non-transactional) executor used as
// the speed-up denominator for the STAMP and EigenBench figures, exactly as
// the paper normalizes those plots to "sequential execution".
package seq

import (
	"repro/internal/mem"
	"repro/internal/tm"
)

// System runs bodies directly against memory with no synchronization at
// all. It must only ever be driven by a single goroutine.
type System struct {
	m     *mem.Memory
	stats tm.Stats
	tx    tx // reused by every Atomic: there is only one goroutine
}

// New creates a sequential executor over m. The memory must not have an HTM
// engine observer attached (sequential runs use their own pristine memory).
func New(m *mem.Memory) *System {
	s := &System{m: m}
	s.tx.s = s
	return s
}

// Name implements tm.System.
func (s *System) Name() string { return "Sequential" }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Memory implements tm.System.
func (s *System) Memory() *mem.Memory { return s.m }

type tx struct {
	s      *System
	thread int
}

var _ tm.Tx = (*tx)(nil)

func (x *tx) Thread() int                     { return x.thread }
func (x *tx) Pause()                          {}
func (x *tx) Read(a mem.Addr) uint64          { return x.s.m.Load(a) }
func (x *tx) Write(a mem.Addr, v uint64)      { x.s.m.Store(a, v) }
func (x *tx) WriteLocal(a mem.Addr, v uint64) { x.s.m.Store(a, v) }
func (x *tx) Work(c int64)                    { tm.Spin(c) }
func (x *tx) NonTxWork(c int64)               { tm.Spin(c) }

// Atomic implements tm.System: the body runs once, directly.
func (s *System) Atomic(thread int, body func(tm.Tx)) {
	s.tx.thread = thread
	body(&s.tx)
	s.stats.Shard(thread).CommitsSW.Inc()
}
