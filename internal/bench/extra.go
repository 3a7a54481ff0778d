package bench

import (
	"fmt"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/hw"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// fabrics compares BCL over the three system-area networks the
// repository models: the Myrinet-like switched fabric, the nwrc 2-D
// mesh, and the heterogeneous composite (cluster of clusters). The
// paper's portability claim is that BCL binaries run unmodified over
// any of them; this report shows they also perform equivalently, since
// both fabrics carry 160 MB/s channels.
func fabrics() *Report {
	r := newReport("fabrics", "BCL over Myrinet, nwrc mesh, and the heterogeneous composite")
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %14s %16s\n", "fabric", "0B latency", "128KB bandwidth")
	type result struct {
		lat sim.Time
		bw  float64
	}
	var results []result
	for _, fk := range []cluster.FabricKind{cluster.Myrinet, cluster.Mesh, cluster.Hetero} {
		lat := fabricPair(fk).pair().warmLatency(0)
		bw := fabricPair(fk).pair().stream(131072, 8)
		results = append(results, result{lat, bw})
		fmt.Fprintf(&b, "%-22s %12.2fus %12.1fMB/s\n", string(fk), us(lat), bw)
	}
	fmt.Fprintf(&b, "\nidentical BCL code on every fabric; latency differs only by hop\ncount and bandwidth stays link-limited.\n")
	r.Text = b.String()
	r.metric("myrinet_us", us(results[0].lat))
	r.metric("mesh_us", us(results[1].lat))
	r.metric("hetero_us", us(results[2].lat))
	r.metric("myrinet_mbps", results[0].bw)
	r.metric("mesh_mbps", results[1].bw)
	return r
}

// fabricPair is the stock pair on a 4-node machine with an explicit
// fabric (nodes 0 and 1 always share a rail under the default hetero
// split, so the composite behaves like its Myrinet half here).
func fabricPair(fk cluster.FabricKind) *rig {
	return pairRig(cluster.Config{Nodes: 4, Fabric: fk, Profile: hw.DAWNING3000(), NIC: ibcl.DefaultNICConfig()}, false)
}

// ablationWindow sweeps the go-back-N window: with a window of 1 the
// firmware degenerates to stop-and-wait and bandwidth collapses to one
// packet per round trip; a handful of packets of window already covers
// the bandwidth-delay product of a 160 MB/s, ~30 µs-RTT link.
func ablationWindow() *Report {
	r := newReport("ablation-window", "Go-back-N window sweep (why the firmware keeps a window)")
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %18s\n", "window", "128KB bandwidth")
	for _, w := range []int{1, 2, 4, 32} {
		cfg := nic.Config{Translate: nic.HostTranslated, Completion: nic.UserEventQueue, Reliable: true, Window: w}
		bw := pairRig(cluster.Config{Nodes: 2, Profile: hw.DAWNING3000(), NIC: cfg}, false).pair().stream(131072, 6)
		fmt.Fprintf(&b, "%10d %14.1fMB/s\n", w, bw)
		r.metric(fmt.Sprintf("bw_w%d_mbps", w), bw)
	}
	fmt.Fprintf(&b, "\nwindow 1 is stop-and-wait: one 4 KB packet per ACK round trip.\n")
	r.Text = b.String()
	return r
}
