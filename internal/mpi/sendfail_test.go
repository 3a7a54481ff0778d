package mpi

import (
	"testing"

	"bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/eadi"
	"bcl/internal/fabric"
	"bcl/internal/sim"
)

// faultJob is job() with a shortened retry ladder so retry exhaustion
// (and thus EvSendFailed) happens within a few virtual milliseconds.
func faultJob(t *testing.T, nodes int, slots []int) (*cluster.Cluster, []*Comm) {
	t.Helper()
	cfg := bcl.DefaultNICConfig()
	cfg.MaxRetries = 3
	return jobOn(t, cluster.Config{Nodes: nodes, NIC: cfg}, slots)
}

// TestSendFailedPropagatesBlocking proves EvSendFailed surfaces as an
// error through BCL -> EADI-2 -> MPI on the blocking path, for both
// the eager and the rendezvous protocol, instead of hanging the rank.
func TestSendFailedPropagatesBlocking(t *testing.T) {
	c, comms := faultJob(t, 2, []int{0, 1})
	// Permanent (for this test) outage of the peer node.
	c.Install(fabric.Schedule{Windows: []fabric.Window{{Node: 1, To: 100 * sim.Second}}})

	small := make([]byte, 64)                // eager path
	large := make([]byte, eadi.EagerLimit*4) // rendezvous path (RTS fails)
	var eagerErr, rndvErr, fastErr error
	var fastElapsed sim.Time
	done := false
	c.Env.Go("r0", func(p *sim.Proc) {
		eagerErr = comms[0].Send(p, writeBytes(comms[0], small), len(small), 1, 1)
		rndvErr = comms[0].Send(p, writeBytes(comms[0], large), len(large), 1, 2)
		// Peer is Dead by now: the next send must fail fast.
		t0 := p.Now()
		fastErr = comms[0].Send(p, writeBytes(comms[0], small), len(small), 1, 3)
		fastElapsed = p.Now() - t0
		done = true
	})
	c.Env.RunUntil(sim.Second)
	if !done {
		t.Fatal("rank 0 hung on a failed send")
	}
	if eagerErr == nil {
		t.Fatal("eager send into outage returned nil error")
	}
	if rndvErr == nil {
		t.Fatal("rendezvous send into outage returned nil error")
	}
	if fastErr == nil {
		t.Fatal("fail-fast send returned nil error")
	}
	if fastElapsed >= c.Nodes[0].Prof.RetransmitTimeout {
		t.Fatalf("fail-fast send took %d ns, slower than one retransmit timeout", fastElapsed)
	}
	if st := c.Nodes[0].NIC.Stats(); st.SendFailures == 0 || st.FastFails == 0 {
		t.Fatalf("counters: failures=%d fastfails=%d", st.SendFailures, st.FastFails)
	}
}

// TestSendFailedPropagatesNonblocking proves the nonblocking path:
// Isend posts, and the failure is reported by Wait as an error.
func TestSendFailedPropagatesNonblocking(t *testing.T) {
	c, comms := faultJob(t, 2, []int{0, 1})
	c.Install(fabric.Schedule{Windows: []fabric.Window{{Node: 1, To: 100 * sim.Second}}})

	payload := make([]byte, 128)
	var waitErr error
	done := false
	c.Env.Go("r0", func(p *sim.Proc) {
		req, err := comms[0].Isend(p, writeBytes(comms[0], payload), len(payload), 1, 9)
		if err != nil {
			t.Error(err)
			return
		}
		_, waitErr = req.Wait(p)
		done = true
	})
	c.Env.RunUntil(sim.Second)
	if !done {
		t.Fatal("rank 0 hung in Wait on a failed Isend")
	}
	if waitErr == nil {
		t.Fatal("Wait on failed Isend returned nil error")
	}
}
