package bcl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/oskernel"
	"bcl/internal/sim"
)

// TestOnlyTheKernelWritesTheNIC parses the package: the library may
// reach the card only to borrow a descriptor, take a message id or read
// state. Every table write goes through an oskernel command, which
// journals it, and no trap body journals anything itself.
func TestOnlyTheKernelWritesTheNIC(t *testing.T) {
	writes := map[string]bool{
		"RegisterPort": true, "ReprogramPort": true, "ClosePort": true,
		"PostSend": true, "PostRecv": true, "AddSystemBuffer": true,
		"RegisterOpen": true, "RegisterCollCtx": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if strings.HasPrefix(sel.Sel.Name, "Shadow") {
				t.Errorf("%v: %s call in a trap body", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			if sel.Sel.Name != "NIC" {
				return true
			}
			// The card must be the receiver of a method call: X.NIC.M(...).
			if len(stack) < 3 {
				t.Errorf("%v: the card escapes", fset.Position(sel.Pos()))
				return true
			}
			method, ok := stack[len(stack)-2].(*ast.SelectorExpr)
			call, isCall := stack[len(stack)-3].(*ast.CallExpr)
			switch {
			case !ok || method.X != sel || !isCall || call.Fun != method:
				t.Errorf("%v: the card escapes", fset.Position(sel.Pos()))
			case writes[method.Sel.Name]:
				t.Errorf("%v: NIC.%s called directly, not through the kernel", fset.Position(sel.Pos()), method.Sel.Name)
			}
			return true
		})
	}
}

// journalRecords reads k's recovery journal size from its gauges.
func journalRecords(k *oskernel.Kernel) int64 {
	var n int64
	k.CollectGauges(func(_ int, _, name string, v int64) {
		if name == "journal_records" {
			n = v
		}
	})
	return n
}

// TestExitClosesThePort: a process that exits without closing its port
// leaves nothing on the card — no port, no armed posting, no live ring.
func TestExitClosesThePort(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	a, n0 := tb.ports[0], tb.c.Nodes[0]
	n0.Kernel.Exit(a.Process())
	if _, ok := n0.NIC.LookupPort(a.Addr().Port); ok {
		t.Fatal("the exited process's port is still registered on the card")
	}
	if err := n0.NIC.Drained(); err != nil {
		t.Fatal(err)
	}
	if n := journalRecords(n0.Kernel); n != 0 {
		t.Fatalf("journal holds %d records after exit", n)
	}
}

// TestBatchedReturnSurvivesCrash: buffers given back in a batched trap
// are journaled like any other, so a firmware crash after the return
// does not shrink the rebuilt system pool. The receiver's whole pool is
// consumed and recycled, two full batches, the NIC crashes and the
// watchdog recovers it, and a second pool's worth of messages must all
// land.
func TestBatchedReturnSurvivesCrash(t *testing.T) {
	c, a, b := survivalBed(t, cluster.Myrinet, DefaultNICConfig())
	const pool, size = 16, 64
	delivered := 0
	c.Env.Go("rounds", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(size)
		for round := 0; round < 2; round++ {
			for i := 0; i < pool; i++ {
				if _, err := a.Send(p, b.Addr(), SystemChannel, va, size, uint64(i)); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
			traps := c.Nodes[1].Kernel.Stats().Traps
			for i := 0; i < pool; i++ {
				ev := b.WaitRecv(p)
				if err := b.RecycleSystemBuffer(p, ev.VA); err != nil {
					t.Errorf("batched return: %v", err)
					return
				}
				delivered++
			}
			if got := c.Nodes[1].Kernel.Stats().Traps - traps; got != pool/returnBatch {
				t.Errorf("%d buffers returned in %d traps, want %d", pool, got, pool/returnBatch)
			}
			if round == 0 {
				c.Nodes[1].NIC.CrashFirmware()
				p.Sleep(5 * sim.Millisecond) // the watchdog reboots and replays
			}
		}
	})
	c.Env.RunUntil(c.Env.Now() + 200*sim.Millisecond)
	if got := c.Nodes[1].Kernel.Stats().NICRecoveries; got != 1 {
		t.Fatalf("NIC recoveries %d, want 1", got)
	}
	if delivered != 2*pool {
		t.Fatalf("delivered %d of %d messages", delivered, 2*pool)
	}
	assertDrained(t, c)
}
