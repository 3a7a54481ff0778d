package node

import (
	"testing"

	"bcl/internal/fabric/myrinet"
	"bcl/internal/hw"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

func newNode(t *testing.T) (*sim.Env, *Node) {
	t.Helper()
	env := sim.NewEnv(1)
	prof := hw.DAWNING3000()
	fab := myrinet.New(env, prof, 1)
	cfg := nic.Config{Translate: nic.HostTranslated, Completion: nic.UserEventQueue, Reliable: true}
	return env, New(env, prof, 0, fab, cfg)
}

func TestNodeAssembly(t *testing.T) {
	_, n := newNode(t)
	if n.Mem == nil || n.Kernel == nil || n.NIC == nil {
		t.Fatal("node missing components")
	}
	// A DAWNING node is 4-way: four CPUs are granted at once, a fifth
	// waits.
	held := func(a, b uint64) {}
	if !n.CPUs.AcquireFn(4, held, 0, 0) || n.CPUs.AcquireFn(1, held, 0, 0) {
		t.Fatal("CPUs: want 4 granted at once and a fifth queued")
	}
	if n.Mem.PageSize() != 4096 {
		t.Fatalf("page size = %d", n.Mem.PageSize())
	}
}

func TestMemcpyCost(t *testing.T) {
	env, n := newNode(t)
	var zero, big sim.Time
	env.Go("p", func(p *sim.Proc) {
		t0 := p.Now()
		n.Memcpy(p, 0)
		zero = p.Now() - t0
		t0 = p.Now()
		n.Memcpy(p, 400_000) // 1 ms at 400 MB/s
		big = p.Now() - t0
	})
	env.Run()
	if zero != n.Prof.MemcpyOverhead {
		t.Fatalf("zero-byte copy = %d, want overhead %d", zero, n.Prof.MemcpyOverhead)
	}
	want := n.Prof.MemcpyOverhead + sim.Millisecond
	if big != want {
		t.Fatalf("400 KB copy = %d, want %d", big, want)
	}
}

func TestConcurrentCopiesOverlap(t *testing.T) {
	// Two processes copying simultaneously finish in one copy time
	// each (the DRAM-limited per-copy bandwidth already accounts for
	// sharing) — this is what makes the intra-node pipeline work.
	env, n := newNode(t)
	var t1, t2 sim.Time
	env.Go("a", func(p *sim.Proc) {
		n.Memcpy(p, 400_000)
		t1 = p.Now()
	})
	env.Go("b", func(p *sim.Proc) {
		n.Memcpy(p, 400_000)
		t2 = p.Now()
	})
	env.Run()
	want := n.Prof.MemcpyOverhead + sim.Millisecond
	if t1 != want || t2 != want {
		t.Fatalf("parallel copies finished at %d/%d, want both %d", t1, t2, want)
	}
}

func TestCPUContention(t *testing.T) {
	env, n := newNode(t)
	finished := 0
	for i := 0; i < 8; i++ {
		env.Go("worker", func(p *sim.Proc) {
			n.CPUs.Acquire(p, 1)
			p.Sleep(100)
			n.CPUs.Release(1)
			finished++
		})
	}
	end := env.Run()
	if finished != 8 {
		t.Fatalf("finished = %d", finished)
	}
	// 8 jobs of 100 ns on 4 CPUs: two waves.
	if end != 200 {
		t.Fatalf("makespan = %d, want 200 (4-way SMP)", end)
	}
}
