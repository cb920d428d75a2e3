package htm

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/mem"
)

func TestReadLineRoundTrip(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	base := m.AllocLines(1)
	for i := 0; i < mem.LineWords; i++ {
		m.Store(base+mem.Addr(i), uint64(100+i))
	}
	res := e.Execute(0, func(tx *Txn) {
		var out [mem.LineWords]uint64
		tx.ReadLine(base, &out)
		for i, v := range out {
			if v != uint64(100+i) {
				t.Errorf("word %d = %d", i, v)
			}
		}
	})
	if !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
}

func TestReadLineUnalignedPanics(t *testing.T) {
	e := newTestEngine(1024, nil)
	base := e.Memory().AllocLines(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Execute(0, func(tx *Txn) {
		var out [mem.LineWords]uint64
		tx.ReadLine(base+1, &out)
	})
}

func TestWriteLinePublishesAtomically(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	base := m.AllocLines(1)
	var vals [mem.LineWords]uint64
	for i := range vals {
		vals[i] = uint64(i) * 7
	}
	res := e.Execute(0, func(tx *Txn) {
		tx.WriteLine(base, &vals)
		// Read-back through the line buffer.
		if got := tx.Read(base + 3); got != 21 {
			t.Errorf("read-own-line-write = %d, want 21", got)
		}
		var out [mem.LineWords]uint64
		tx.ReadLine(base, &out)
		if out != vals {
			t.Error("ReadLine after WriteLine mismatch")
		}
	})
	if !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
	for i := range vals {
		if got := m.Load(base + mem.Addr(i)); got != vals[i] {
			t.Fatalf("word %d = %d after commit", i, got)
		}
	}
}

func TestWriteLineDiscardedOnAbort(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	base := m.AllocLines(1)
	m.Store(base, 5)
	var vals [mem.LineWords]uint64
	vals[0] = 99
	res := e.Execute(0, func(tx *Txn) {
		tx.WriteLine(base, &vals)
		tx.Abort(1)
	})
	if res.Committed {
		t.Fatal("expected abort")
	}
	if got := m.Load(base); got != 5 {
		t.Fatalf("aborted WriteLine leaked: %d", got)
	}
}

func TestWriteLineConflictsLikeWrite(t *testing.T) {
	e := newTestEngine(1024, nil)
	base := e.Memory().AllocLines(1)
	r1, r2 := runConflict(e,
		func(tx *Txn, sync1 chan struct{}) {
			tx.Read(base)
			close(sync1)
			for !tx.Doomed() {
			}
			tx.Work(1)
		},
		func(tx *Txn, sync1 chan struct{}) {
			<-sync1
			var vals [mem.LineWords]uint64
			tx.WriteLine(base, &vals)
		},
	)
	if r1.Committed || !r2.Committed {
		t.Fatalf("WriteLine did not doom the reader: %+v %+v", r1, r2)
	}
}

func TestWriteLineCountsCapacity(t *testing.T) {
	e := newTestEngine(1<<16, func(c *Config) {
		c.WriteLines = 2
		c.WriteWays = 64
		c.WriteSets = 1
	})
	base := e.Memory().AllocLines(4)
	var vals [mem.LineWords]uint64
	res := e.Execute(0, func(tx *Txn) {
		for i := 0; i < 3; i++ {
			tx.WriteLine(base+mem.Addr(i*mem.LineWords), &vals)
		}
	})
	if res.Committed || res.Reason != Capacity {
		t.Fatalf("want capacity abort, got %+v", res)
	}
}

func TestWriteLocalVisibleAndCheap(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	res := e.Execute(0, func(tx *Txn) {
		tx.WriteLocal(a, 42)
		// Local writes are applied in place immediately.
		if got := m.Load(a); got != 42 {
			t.Errorf("local write not in place: %d", got)
		}
		if got := tx.Read(a); got != 42 {
			t.Errorf("transactional read of local write = %d", got)
		}
	})
	if !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
}

func TestWriteLocalCountsCapacity(t *testing.T) {
	e := newTestEngine(1<<16, func(c *Config) {
		c.WriteLines = 2
		c.WriteWays = 64
		c.WriteSets = 1
	})
	base := e.Memory().AllocLines(4)
	res := e.Execute(0, func(tx *Txn) {
		for i := 0; i < 3; i++ {
			tx.WriteLocal(base+mem.Addr(i*mem.LineWords), 1)
		}
	})
	if res.Committed || res.Reason != Capacity {
		t.Fatalf("want capacity abort, got %+v", res)
	}
}

func TestWriteLocalSurvivesAbortByContract(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	res := e.Execute(0, func(tx *Txn) {
		tx.WriteLocal(a, 7)
		tx.Abort(1)
	})
	if res.Committed {
		t.Fatal("expected abort")
	}
	// The contract: post-abort value of a local write is unspecified; this
	// implementation stores in place, so the value persists.
	if got := m.Load(a); got != 7 {
		t.Fatalf("local write = %d", got)
	}
}

func TestTxnRecyclingIsClean(t *testing.T) {
	e := newTestEngine(1<<14, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	b := m.AllocLines(1)
	// First transaction writes a and aborts; second must not inherit any
	// buffered state.
	e.Execute(0, func(tx *Txn) {
		tx.Write(a, 111)
		tx.WriteLocal(b, 5)
		tx.Abort(1)
	})
	res := e.Execute(0, func(tx *Txn) {
		if got := tx.Read(a); got != 0 {
			t.Errorf("recycled txn sees stale buffered write: %d", got)
		}
		tx.Write(a, 1)
	})
	if !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
	if got := m.Load(a); got != 1 {
		t.Fatalf("a = %d", got)
	}
}

func TestBeginCommitHandleAPI(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	a := m.Alloc(1)
	func() {
		defer func() {
			if _, ok := Recover(recover()); ok {
				t.Fatal("unexpected abort")
			}
		}()
		tx := e.Begin(0)
		tx.Write(a, 9)
		tx.Commit()
	}()
	if got := m.Load(a); got != 9 {
		t.Fatalf("a = %d", got)
	}
	// Cancel discards.
	tx := e.Begin(0)
	tx.Write(a, 100)
	tx.Cancel()
	if got := m.Load(a); got != 9 {
		t.Fatalf("a = %d after Cancel", got)
	}
	// The slot is reusable after Cancel.
	res := e.Execute(0, func(tx *Txn) { tx.Write(a, 10) })
	if !res.Committed || m.Load(a) != 10 {
		t.Fatal("slot unusable after Cancel")
	}
}

func TestAsAbortDoesNotReraise(t *testing.T) {
	if _, ok := AsAbort("not an abort"); ok {
		t.Fatal("AsAbort accepted a non-abort")
	}
	if _, ok := AsAbort(nil); ok {
		t.Fatal("AsAbort accepted nil")
	}
}

func TestConcurrentRecyclingStress(t *testing.T) {
	e := newTestEngine(1<<14, nil)
	m := e.Memory()
	a := m.AllocLines(1)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				for {
					res := e.Execute(slot, func(tx *Txn) {
						tx.Write(a, tx.Read(a)+1)
					})
					if res.Committed {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.Load(a); got != 2400 {
		t.Fatalf("counter = %d, want 2400", got)
	}
}

// TestEntryStays16Bytes pins the monitor table's density: the writer's
// buffer index rides in the padding after the writer field.
func TestEntryStays16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Fatalf("entry is %d bytes, want 16", n)
	}
}

func TestReadLineSeesOwnWordWrite(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	base := m.AllocLines(1)
	for i := 0; i < mem.LineWords; i++ {
		m.Store(base+mem.Addr(i), uint64(100+i))
	}
	res := e.Execute(0, func(tx *Txn) {
		tx.Write(base+3, 42)
		var out [mem.LineWords]uint64
		tx.ReadLine(base, &out)
		for i, v := range out {
			want := uint64(100 + i)
			if i == 3 {
				want = 42
			}
			if v != want {
				t.Errorf("ReadLine word %d = %d, want %d", i, v, want)
			}
		}
	})
	if !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
}

func TestWriteLineOverridesOwnWordWrite(t *testing.T) {
	e := newTestEngine(1024, nil)
	m := e.Memory()
	base := m.AllocLines(1)
	vals := [mem.LineWords]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	res := e.Execute(0, func(tx *Txn) {
		tx.Write(base+3, 42)
		tx.WriteLine(base, &vals)
		if got := tx.Read(base + 3); got != 4 {
			t.Errorf("read after WriteLine = %d, want 4", got)
		}
		tx.Write(base+5, 60) // and a word write after the line write wins
	})
	if !res.Committed {
		t.Fatalf("abort: %+v", res)
	}
	want := vals
	want[5] = 60
	for i := range want {
		if got := m.Load(base + mem.Addr(i)); got != want[i] {
			t.Fatalf("word %d = %d after commit, want %d", i, got, want[i])
		}
	}
}

// TestCommitAtomicityStress runs committers that stamp every word of
// several lines with one value, mixing Write and WriteLine, against
// transactional readers (Read and ReadLine) and non-transactional readers.
// A committed reader must see one stamp everywhere; a non-transactional
// reader scanning the words in order must never see a stamp older than one
// it has already seen, which a torn commit would show.
func TestCommitAtomicityStress(t *testing.T) {
	const lines = 4
	e := newTestEngine(1<<12, nil)
	m := e.Memory()
	base := m.AllocLines(lines)
	const words = lines * mem.LineWords
	const commits = 300
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for slot := 0; slot < 2; slot++ {
		writers.Add(1)
		go func(slot int) {
			defer writers.Done()
			for i := 0; i < commits; i++ {
				for {
					res := e.Execute(slot, func(tx *Txn) {
						s := tx.Read(base) + 1
						for l := 0; l < lines; l++ {
							lb := base + mem.Addr(l*mem.LineWords)
							if (l+i+slot)%2 == 0 {
								line := [mem.LineWords]uint64{s, s, s, s, s, s, s, s}
								tx.Write(lb+1, s-1) // overwritten by the line write
								tx.WriteLine(lb, &line)
								continue
							}
							for w := 0; w < mem.LineWords; w++ {
								tx.Write(lb+mem.Addr(w), s)
							}
							if got := tx.Read(lb + 2); got != s {
								t.Errorf("read-own-write = %d, want %d", got, s)
							}
						}
					})
					if res.Committed {
						break
					}
				}
			}
		}(slot)
	}
	for slot := 2; slot < 4; slot++ {
		readers.Add(1)
		go func(slot int) {
			defer readers.Done()
			var seen [words]uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				res := e.Execute(slot, func(tx *Txn) {
					for l := 0; l < lines; l++ {
						lb := base + mem.Addr(l*mem.LineWords)
						if slot%2 == 0 {
							var out [mem.LineWords]uint64
							tx.ReadLine(lb, &out)
							copy(seen[l*mem.LineWords:], out[:])
							continue
						}
						for w := 0; w < mem.LineWords; w++ {
							seen[l*mem.LineWords+w] = tx.Read(lb + mem.Addr(w))
						}
					}
				})
				if !res.Committed {
					continue
				}
				for i, v := range seen {
					if v != seen[0] {
						t.Errorf("torn commit seen transactionally: word %d = %d, word 0 = %d", i, v, seen[0])
						return
					}
				}
			}
		}(slot)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var last uint64
				for i := 0; i < words; i++ {
					v := m.Load(base + mem.Addr(i))
					if v < last {
						t.Errorf("torn commit seen non-transactionally: word %d = %d after %d", i, v, last)
						return
					}
					last = v
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	for i := 0; i < words; i++ {
		if got := m.Load(base + mem.Addr(i)); got != 2*commits {
			t.Fatalf("word %d = %d, want %d", i, got, 2*commits)
		}
	}
}
