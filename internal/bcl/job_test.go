package bcl

import (
	"errors"
	"fmt"
	"regexp"
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/oskernel"
	"bcl/internal/sim"
)

// bootByLoop is the setup loop every world wrote out before Boot: the
// reference model Boot is checked against, kept as it was.
func bootByLoop(t *testing.T, c *cluster.Cluster, sys *System, slots []int, opts Options, until sim.Time) []*Port {
	t.Helper()
	var ports []*Port
	done := make(chan struct{})
	c.Env.Go("setup", func(p *sim.Proc) {
		for _, n := range slots {
			nd := c.Nodes[n]
			proc := nd.Kernel.Spawn()
			pt, err := sys.Open(p, nd, proc, opts)
			if err != nil {
				t.Errorf("open on node %d: %v", n, err)
				return
			}
			ports = append(ports, pt)
		}
		close(done)
	})
	c.Env.RunUntil(until)
	select {
	case <-done:
	default:
		t.Fatal("setup did not finish")
	}
	return ports
}

// TestBootMatchesLoop boots the same job twice on two clusters of one
// seed, once with Boot and once with the loop it replaced, and requires
// the same events in the same order, the same clock and the same port
// addresses and process ids — for a first job at t = 0 and a second
// one booted at t = 12 ms. Reading until as relative to the clock
// turns it red: the second horizon then passes the event at 30 ms.
func TestBootMatchesLoop(t *testing.T) {
	opts := Options{SystemBuffers: 8}
	for _, fab := range []cluster.FabricKind{cluster.Myrinet, cluster.Mesh, cluster.Hetero} {
		for _, slots := range [][]int{{0, 1}, {0, 0}, {0, 1, 1, 0}} {
			t.Run(fmt.Sprintf("%s/%v", fab, slots), func(t *testing.T) {
				cfg := cluster.Config{Nodes: 2, Fabric: fab, NIC: DefaultNICConfig(), Seed: 3}
				cb, cl := cluster.New(cfg), cluster.New(cfg)
				defer cb.Env.Close()
				defer cl.Env.Close()
				sb, sl := NewSystem(cb), NewSystem(cl)
				// The second job boots with the clock at 12 ms; its horizon
				// must stop short of the event at 30 ms.
				for _, c := range []*cluster.Cluster{cb, cl} {
					c.Env.At(12*sim.Millisecond, func() {})
					c.Env.At(30*sim.Millisecond, func() {})
				}
				for job, until := range []sim.Time{10 * sim.Millisecond, 25 * sim.Millisecond} {
					if job == 1 {
						cb.Env.RunUntil(12 * sim.Millisecond)
						cl.Env.RunUntil(12 * sim.Millisecond)
					}
					got, err := sb.Boot(slots, opts, until)
					if err != nil {
						t.Fatalf("job %d: %v", job, err)
					}
					want := bootByLoop(t, cl, sl, slots, opts, until)
					if g, w := cb.Env.Fingerprint(), cl.Env.Fingerprint(); g != w {
						t.Fatalf("job %d: fingerprint %#x, loop %#x", job, g, w)
					}
					if g, w := cb.Env.Steps(), cl.Env.Steps(); g != w {
						t.Fatalf("job %d: %d events, loop %d", job, g, w)
					}
					if g, w := cb.Env.Now(), cl.Env.Now(); g != w {
						t.Fatalf("job %d: clock %d, loop %d", job, g, w)
					}
					if len(got) != len(want) {
						t.Fatalf("job %d: %d ports, loop %d", job, len(got), len(want))
					}
					for i := range got {
						if got[i].Addr() != want[i].Addr() || got[i].Process().PID != want[i].Process().PID {
							t.Fatalf("job %d rank %d: port %v pid %d, loop %v pid %d", job, i,
								got[i].Addr(), got[i].Process().PID, want[i].Addr(), want[i].Process().PID)
						}
					}
				}
			})
		}
	}
}

// TestBootErrors: a refused open names the port's label, its rank and
// its node; a horizon too short for the job says how far it got.
func TestBootErrors(t *testing.T) {
	cfg := cluster.Config{Nodes: 2, NIC: DefaultNICConfig()}
	c := cluster.New(cfg)
	defer c.Env.Close()
	// Endpoint 1 on node 0 already belongs to another process, so the
	// job's rank 1, the first port opened on node 0, is refused.
	squatter := c.Nodes[0].Kernel.Spawn()
	if err := c.Nodes[0].Kernel.BindEndpoint(squatter.PID, 1); err != nil {
		t.Fatal(err)
	}
	_, err := NewSystem(c).Boot([]int{1, 0}, Options{Label: "job"}, 10*sim.Millisecond)
	if err == nil || !errors.Is(err, oskernel.ErrNotOwner) ||
		!regexp.MustCompile(`^bcl: open port "job" for rank 1 on node 0: `).MatchString(err.Error()) {
		t.Fatalf("taken endpoint: err = %v", err)
	}

	c = cluster.New(cfg)
	defer c.Env.Close()
	_, err = NewSystem(c).Boot([]int{0, 1}, Options{}, 250*sim.Microsecond)
	if err == nil || err.Error() != "bcl: opened 1 of 2 ports by 250000 ns" {
		t.Fatalf("short horizon: err = %v", err)
	}
}
