package labyrinth

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/seq"
)

func small() Config {
	c := Default()
	c.W, c.H, c.Pairs, c.LongDist, c.MaxThreads = 32, 32, 12, 16, 4
	return c
}

func TestSequentialRunValidates(t *testing.T) {
	app := New(small())
	app.Setup(seq.New(mem.New(app.MemWords() + 1<<12)))
	app.Run(1)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if app.Routed() == 0 {
		t.Fatal("no routes placed")
	}
}

func TestRoutedPlusFailedEqualsPairs(t *testing.T) {
	cfg := small()
	app := New(cfg)
	app.Setup(seq.New(mem.New(app.MemWords() + 1<<12)))
	app.Run(1)
	if app.Routed()+int(app.Failed()) != cfg.Pairs {
		t.Fatalf("routed %d + failed %d != %d", app.Routed(), app.Failed(), cfg.Pairs)
	}
}

func TestPathsDoNotOverlap(t *testing.T) {
	cfg := small()
	app := New(cfg)
	sys := seq.New(mem.New(app.MemWords() + 1<<12))
	app.Setup(sys)
	app.Run(1)
	// Every grid cell holds at most one path id by construction; recount
	// the ids and ensure each routed pair's endpoints carry its own id.
	m := sys.Memory()
	app.routed.Range(func(k, v any) bool {
		id := uint64(k.(int))
		p := v.(pair)
		if m.Load(app.grid+mem.Addr(app.cell(p.sx, p.sy))) != id {
			t.Errorf("path %d source cell overwritten", id)
		}
		if m.Load(app.grid+mem.Addr(app.cell(p.dx, p.dy))) != id {
			t.Errorf("path %d destination cell overwritten", id)
		}
		return true
	})
}

func TestValidateDetectsDisconnectedPath(t *testing.T) {
	cfg := small()
	app := New(cfg)
	sys := seq.New(mem.New(app.MemWords() + 1<<12))
	app.Setup(sys)
	app.Run(1)
	// Break one routed path in the middle: the lowest-numbered routed path
	// that has an interior cell (a path between adjacent cells has none).
	m := sys.Memory()
	broke := false
	for id := 1; id <= cfg.Pairs && !broke; id++ {
		p, ok := app.routed.Load(id)
		if !ok {
			continue
		}
		pp := p.(pair)
		for c := 0; c < cfg.W*cfg.H && !broke; c++ {
			a := app.grid + mem.Addr(c)
			if m.Load(a) == uint64(id) && c != app.cell(pp.sx, pp.sy) && c != app.cell(pp.dx, pp.dy) {
				m.Store(a, 0)
				broke = true
			}
		}
	}
	if !broke {
		t.Skip("no routed path has an interior cell")
	}
	if err := app.Validate(); err == nil {
		t.Fatal("Validate accepted a broken path")
	}
}

func TestHeavyFractionAssigned(t *testing.T) {
	cfg := Default()
	cfg.HeavyFrac = 100
	app := New(cfg)
	app.Setup(seq.New(mem.New(app.MemWords() + 1<<12)))
	for _, p := range app.pairs {
		if !p.heavy {
			t.Fatal("HeavyFrac=100 left a light pair")
		}
	}
}
