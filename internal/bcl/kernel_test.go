package bcl

import (
	"encoding/binary"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/nic"
	"bcl/internal/nic/coll"
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
		"RegisterOpen": true, "RegisterCollCtx": true, "CloseCollCtx": true,
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

// TestCloseCollRejectsForeignContext: two processes share node 0. B
// cannot tear down the collective context A registered there, and A's
// context still completes a combine afterwards.
func TestCloseCollRejectsForeignContext(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 0, 1})
	a, b, c := tb.ports[0], tb.ports[1], tb.ports[2]
	k := tb.c.Nodes[0].Kernel
	const id = 7
	members := []Addr{a.Addr(), c.Addr()}
	sums := map[*Port]int64{}
	tb.c.Env.Go("tenants", func(p *sim.Proc) {
		ctxs := map[*Port]*CollCtx{}
		for me, pt := range []*Port{a, c} {
			ctx, err := pt.RegisterColl(p, id, me, members, coll.Binomial(2, 0))
			if err != nil {
				t.Error(err)
				return
			}
			ctxs[pt] = ctx
		}
		rejects := k.Stats().SecurityRejects
		if err := b.CloseColl(p, id); !errors.Is(err, oskernel.ErrNotOwner) {
			t.Errorf("closing another process's context: %v, want ErrNotOwner", err)
		}
		if got := k.Stats().SecurityRejects; got != rejects+1 {
			t.Errorf("security rejects %d, want %d", got, rejects+1)
		}
		for i, pt := range []*Port{a, c} {
			va := pt.Process().Space.Alloc(8)
			pt.Process().Space.Write(va, binary.LittleEndian.AppendUint64(nil, uint64(3+i)))
			if _, err := pt.CollCombine(p, ctxs[pt], 1, va, 8, coll.OpSum, coll.Int64, true); err != nil {
				t.Error(err)
				return
			}
		}
		for _, pt := range []*Port{a, c} {
			ev := pt.WaitRecvChannel(p, CollChannel)
			got, _ := pt.Process().Space.Read(ev.VA, 8)
			if ev.CollKind == nic.CollEvResult {
				sums[pt] = int64(binary.LittleEndian.Uint64(got))
			}
			if err := pt.CloseColl(p, id); err != nil {
				t.Errorf("owner closing its context: %v", err)
			}
		}
	})
	tb.run(t, 50*sim.Millisecond)
	if sums[a] != 7 || sums[c] != 7 {
		t.Fatalf("combine results %d and %d, want 7 at both members", sums[a], sums[c])
	}
	if _, _, colls, _ := k.Shadow().Pending(); colls != 0 {
		t.Fatalf("journal holds %d collective contexts after both closed", colls)
	}
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
	if ports, recvs, _, _ := n0.Kernel.Shadow().Pending(); ports != 0 || recvs != 0 {
		t.Fatalf("journal holds %d ports and %d postings after exit", ports, recvs)
	}
}

// TestBatchedReturnSurvivesCrash: buffers given back in one batched
// trap are journaled like any other, so a firmware crash after the
// return does not shrink the rebuilt system pool. The receiver's whole
// pool is consumed, returned in one batch, the NIC crashes and the
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
			var bufs []SystemBuf
			for i := 0; i < pool; i++ {
				ev := b.WaitRecv(p)
				bufs = append(bufs, SystemBuf{VA: ev.VA, Len: c.Prof.MaxPacket})
				delivered++
			}
			if err := b.ReturnSystemBuffers(p, bufs); err != nil {
				t.Errorf("batched return: %v", err)
				return
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
