package cluster

import (
	"strings"
	"testing"

	"bcl/internal/fabric"
	"bcl/internal/hw"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

func TestDefaults(t *testing.T) {
	c := New(Config{})
	if c.Size() != 2 {
		t.Fatalf("default nodes = %d", c.Size())
	}
	if c.Fabric.Name() != "myrinet" {
		t.Fatalf("default fabric = %s", c.Fabric.Name())
	}
	if *c.Nodes[0].Prof != *hw.DAWNING3000() {
		t.Fatal("default profile is not DAWNING-3000")
	}
	for i, nd := range c.Nodes {
		if nd.ID != i || nd.NIC == nil || nd.Kernel == nil || nd.Mem == nil {
			t.Fatalf("node %d incomplete", i)
		}
	}
}

func TestMeshSelection(t *testing.T) {
	c := New(Config{Nodes: 9, Fabric: Mesh})
	if c.Fabric.Name() != "nwrc-mesh" {
		t.Fatalf("fabric = %s", c.Fabric.Name())
	}
	if c.Fabric.Nodes() != 9 {
		t.Fatalf("fabric nodes = %d", c.Fabric.Nodes())
	}
}

func TestUnknownFabricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown fabric")
		}
	}()
	New(Config{Fabric: "token-ring"})
}

// TestRawNICTrafficAcrossCluster pushes a packet through the assembled
// cluster at the lowest level to prove the wiring (nodes <-> fabric
// endpoints) is consistent.
func TestRawNICTrafficAcrossCluster(t *testing.T) {
	c := New(Config{Nodes: 4, NIC: nic.Config{
		Translate: nic.HostTranslated, Completion: nic.UserEventQueue, Reliable: true,
	}})
	got := false
	// Register a port with a pool buffer on node 3 and send from 0.
	kproc := c.Nodes[3].Kernel.Spawn()
	va := kproc.Space.Alloc(4096)
	segs, _ := kproc.Space.Segments(va, 4096)
	for _, s := range segs {
		c.Nodes[3].Mem.PinFrame(s.Phys)
	}
	c.Nodes[3].NIC.RegisterPort(1)
	c.Nodes[3].NIC.AddSystemBuffer(1, &nic.RecvDesc{Len: 4096, Segs: segs, VA: va})
	sproc := c.Nodes[0].Kernel.Spawn()
	sva := sproc.Space.Alloc(64)
	sproc.Space.Write(sva, []byte("cross-cluster"))
	ssegs, _ := sproc.Space.Segments(sva, 13)
	for _, s := range ssegs {
		c.Nodes[0].Mem.PinFrame(s.Phys)
	}
	c.Nodes[0].NIC.RegisterPort(1)
	c.Env.Go("send", func(p *sim.Proc) {
		c.Nodes[0].NIC.PostSend(p, &nic.SendDesc{
			Kind: nic.DescData, MsgID: 1, SrcPort: 1, DstNode: 3, DstPort: 1,
			Channel: 0, Len: 13, Segs: ssegs,
		})
	})
	c.Env.Go("recv", func(p *sim.Proc) {
		pt, _ := c.Nodes[3].NIC.LookupPort(1)
		ev := pt.RecvEvQ.Recv(p)
		data, _ := kproc.Space.Read(ev.VA, ev.Len)
		got = string(data) == "cross-cluster"
	})
	c.Env.RunUntil(10 * sim.Millisecond)
	if !got {
		t.Fatal("packet did not cross the assembled cluster")
	}
}

func TestSeedDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		c := New(Config{Nodes: 2, Seed: 7, NIC: nic.Config{
			Translate: nic.HostTranslated, Completion: nic.UserEventQueue, Reliable: true,
		}})
		c.Install(fabric.Schedule{Rules: []fabric.Rule{{P: 0.5, Do: fabric.Drop}}})
		kproc := c.Nodes[1].Kernel.Spawn()
		va := kproc.Space.Alloc(4096)
		segs, _ := kproc.Space.Segments(va, 4096)
		for _, s := range segs {
			c.Nodes[1].Mem.PinFrame(s.Phys)
		}
		c.Nodes[1].NIC.RegisterPort(1)
		for i := 0; i < 8; i++ {
			c.Nodes[1].NIC.AddSystemBuffer(1, &nic.RecvDesc{Len: 4096, Segs: segs, VA: va})
		}
		c.Nodes[0].NIC.RegisterPort(1)
		sproc := c.Nodes[0].Kernel.Spawn()
		sva := sproc.Space.Alloc(64)
		ssegs, _ := sproc.Space.Segments(sva, 64)
		for _, s := range ssegs {
			c.Nodes[0].Mem.PinFrame(s.Phys)
		}
		c.Env.Go("send", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				c.Nodes[0].NIC.PostSend(p, &nic.SendDesc{
					Kind: nic.DescData, MsgID: uint64(i + 1), SrcPort: 1,
					DstNode: 1, DstPort: 1, Channel: 0, Len: 64, Segs: ssegs,
				})
			}
		})
		c.Env.RunUntil(50 * sim.Millisecond)
		st := c.Nodes[0].NIC.Stats()
		return st.Retransmits, st.PacketsSent
	}
	r1, p1 := run()
	r2, p2 := run()
	if r1 != r2 || p1 != p2 {
		t.Fatalf("same-seed runs diverged: %d/%d vs %d/%d", r1, p1, r2, p2)
	}
}

// TestInstallRejectsMalformedSchedules: a schedule the machine cannot
// run panics at Install, naming the entry, with nothing armed — not as
// an outage that never happens or a divide by zero at the first packet.
func TestInstallRejectsMalformedSchedules(t *testing.T) {
	for _, tc := range []struct {
		name string
		fab  FabricKind
		bad  func(s *fabric.Schedule)
		want string
	}{
		{"window node out of range", Myrinet, func(s *fabric.Schedule) {
			s.Windows = append(s.Windows, fabric.Window{Node: 99, To: sim.Millisecond})
		}, "window 1 {Node:99"},
		{"window node negative", Mesh, func(s *fabric.Schedule) {
			s.Windows = append(s.Windows, fabric.Window{Node: -2, To: sim.Millisecond})
		}, "window 1 {Node:-2"},
		{"window rail out of range", Hetero, func(s *fabric.Schedule) {
			s.Windows = append(s.Windows, fabric.Window{Node: 1, Rail: fabric.OnRail(2), To: sim.Millisecond})
		}, "window 1"},
		{"rule rail on a single-rail fabric", Myrinet, func(s *fabric.Schedule) {
			s.Rules = append(s.Rules, fabric.Rule{Every: 2, Do: fabric.Drop, Rail: fabric.OnRail(1)})
		}, "rule 1"},
		{"crash node out of range", Myrinet, func(s *fabric.Schedule) {
			s.Crashes = append(s.Crashes, fabric.Crash{Node: 4, At: sim.Millisecond})
		}, "crash 1 {Node:4"},
		{"inverted window", Myrinet, func(s *fabric.Schedule) {
			s.Windows = append(s.Windows, fabric.Window{Node: 1, From: 2 * sim.Millisecond, To: sim.Millisecond})
		}, "window 1"},
		{"empty window", Hetero, func(s *fabric.Schedule) {
			s.Windows = append(s.Windows, fabric.Window{Node: fabric.AllNodes, From: sim.Millisecond, To: sim.Millisecond})
		}, "window 1"},
		{"slow factor 1", Myrinet, func(s *fabric.Schedule) {
			s.Windows = append(s.Windows, fabric.Window{Node: 1, To: sim.Millisecond, Slow: 1})
		}, "window 1"},
		{"slow factor negative", Myrinet, func(s *fabric.Schedule) {
			s.Windows = append(s.Windows, fabric.Window{Node: 1, To: sim.Millisecond, Slow: -4})
		}, "window 1"},
		{"Every 0", Myrinet, func(s *fabric.Schedule) {
			s.Rules = append(s.Rules, fabric.Rule{Every: 0, Do: fabric.Drop})
		}, "rule 1"},
		{"Every negative", Myrinet, func(s *fabric.Schedule) {
			s.Rules = append(s.Rules, fabric.Rule{Every: -3, Do: fabric.Duplicate})
		}, "rule 1"},
		{"K negative", Hetero, func(s *fabric.Schedule) {
			s.Rules = append(s.Rules, fabric.Rule{K: -1, Do: fabric.Drop})
		}, "rule 1"},
		{"two triggers", Myrinet, func(s *fabric.Schedule) {
			s.Rules = append(s.Rules, fabric.Rule{K: 1, Every: 2, Do: fabric.Drop})
		}, "rule 1"},
		{"p above 1", Myrinet, func(s *fabric.Schedule) {
			s.Rules = append(s.Rules, fabric.Rule{P: 1.5, Do: fabric.Drop})
		}, "rule 1"},
		{"p negative", Myrinet, func(s *fabric.Schedule) {
			s.Rules = append(s.Rules, fabric.Rule{P: -0.1, Do: fabric.Corrupt})
		}, "rule 1"},
		{"no verdict", Myrinet, func(s *fabric.Schedule) {
			s.Rules = append(s.Rules, fabric.Rule{Every: 2})
		}, "rule 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Nodes: 4, Fabric: tc.fab})
			// Valid entries ahead of the bad one: none may be armed.
			s := fabric.Schedule{
				Rules:   []fabric.Rule{{P: 1, Do: fabric.Drop}},
				Windows: []fabric.Window{{Node: 0, To: sim.Millisecond}},
				Crashes: []fabric.Crash{{Node: 0, At: sim.Microsecond}},
			}
			tc.bad(&s)
			msg := func() (msg string) {
				defer func() { msg, _ = recover().(string) }()
				c.Install(s)
				return ""
			}()
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("Install panicked with %q, want it to name %q", msg, tc.want)
			}
			c.Env.RunUntil(10 * sim.Microsecond)
			if c.Fabric.NodeDown(0) || c.Nodes[0].NIC.FirmwareDead() {
				t.Fatal("a rejected schedule armed its valid entries")
			}
		})
	}
	// The valid entries alone install.
	New(Config{Nodes: 4, Fabric: Hetero}).Install(fabric.Schedule{
		Rules:   []fabric.Rule{{P: 1, Do: fabric.Drop, Rail: fabric.OnRail(1)}},
		Windows: []fabric.Window{{Node: fabric.AllNodes, Rail: fabric.OnRail(0), To: sim.Millisecond, Slow: 2}},
		Crashes: []fabric.Crash{{Node: 3, At: sim.Microsecond}},
	})
}
