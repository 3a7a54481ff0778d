package bench

import (
	"fmt"
	"strings"

	"bcl/internal/cluster"
	"bcl/internal/hw"
	"bcl/internal/nic"
)

// ablationPIO sweeps the PCI programmed-IO word cost: the paper's
// discussion notes that filling the send request is limited by PCI IO
// performance and "a good motherboard can improve the I/O performance
// heavily".
func ablationPIO() *Report {
	r := newReport("ablation-pio", "PIO cost sweep (paper: send-request fill is PCI-IO bound)")
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %16s %16s\n", "PIO scale", "0B latency", "128KB bandwidth")
	for _, f := range []float64{1.0, 0.5, 0.25, 0.1} {
		prof := hw.DAWNING3000().ScalePIO(f)
		lat := bclLatency(prof, false, 0)
		bw := bclBandwidth(prof, false, 131072, 8)
		fmt.Fprintf(&b, "%11.2fx %14.2fus %12.1fMB/s\n", f, us(lat), bw)
		if f == 1.0 {
			r.metric("lat_base_us", us(lat))
		}
		if f == 0.25 {
			r.metric("lat_fastpio_us", us(lat))
		}
	}
	fmt.Fprintf(&b, "\nlatency falls with PIO cost (the descriptor fill is ~half of the\nhost send path); bandwidth barely moves (the link is the limit).\n")
	r.Text = b.String()
	return r
}

// ablationCPU sweeps host CPU speed: "a faster CPU will reduce these
// [checking and trap] overheads".
func ablationCPU() *Report {
	r := newReport("ablation-cpu", "Host CPU speed sweep (paper: checks and traps scale with CPU)")
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %16s %18s\n", "CPU scale", "0B latency", "semi-user extra")
	for _, f := range []float64{1.0, 0.5, 0.25} {
		prof := hw.DAWNING3000().ScaleCPU(f)
		lat := bclLatency(prof, false, 0)
		semi := bclPingPong(prof, 0)
		user := ulcPingPong(prof, 0)
		fmt.Fprintf(&b, "%11.2fx %14.2fus %16.2fus\n", f, us(lat), us(semi-user))
		if f == 1.0 {
			r.metric("extra_base_us", us(semi-user))
		}
		if f == 0.25 {
			r.metric("extra_fastcpu_us", us(semi-user))
		}
	}
	fmt.Fprintf(&b, "\nthe semi-user-level penalty (trap + kernel checks) shrinks with a\nfaster CPU, as the paper's discussion predicts.\n")
	r.Text = b.String()
	return r
}

// ablationReliability removes the firmware reliability protocol: the
// paper attributes 5.65 µs of the NIC time to reliable transmission
// ("to reduce the protocol overhead is a way to improve performance").
func ablationReliability() *Report {
	r := newReport("ablation-reliability", "Reliable vs raw firmware (paper: 5.65 µs of NIC time is the reliable protocol)")
	reliable := bclLatency(hw.DAWNING3000(), false, 0)

	// A BCL variant on unreliable firmware with the protocol cost
	// stripped out of the per-message processing.
	prof := hw.DAWNING3000().Clone()
	prof.MCPSendProc -= 5650 - 2200 // keep basic dispatch, drop the protocol machine
	lat := pairRig(cluster.Config{Nodes: 2, Profile: prof,
		NIC: nic.Config{Translate: nic.HostTranslated, Completion: nic.UserEventQueue, Reliable: false}}, false).pair().warmLatency(0)

	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %12s\n", "firmware", "0B latency")
	fmt.Fprintf(&b, "%-36s %10.2fus\n", "reliable (go-back-N, CRC, ACK)", us(reliable))
	fmt.Fprintf(&b, "%-36s %10.2fus\n", "raw (no protocol)", us(lat))
	fmt.Fprintf(&b, "\nprotocol cost on the path: %.2f µs (paper: ~5.65 µs on the source\nNIC, plus ACK handling) — but raw firmware silently loses data\nunder faults (see the BIP comparator tests).\n", us(reliable-lat))
	r.Text = b.String()
	r.metric("reliable_us", us(reliable))
	r.metric("raw_us", us(lat))
	return r
}

// ablationKernelPath confirms the paper's bandwidth claim: the extra
// kernel trap is ~0.4% of a 128 KB transfer, so semi-user and
// user-level bandwidth are the same.
func ablationKernelPath() *Report {
	r := newReport("ablation-kernelpath", "Kernel path vs bandwidth (paper: +4.17 µs is ~0.4% at 128 KB)")
	prof := hw.DAWNING3000()
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %16s %16s\n", "bytes", "semi-user MB/s", "user-level MB/s")
	for _, size := range []int{4096, 32768, 131072} {
		semi := bclBandwidth(prof, false, size, 8)
		user := ulcPair(gmConfig(prof)).stream(size, 8)
		fmt.Fprintf(&b, "%10d %16.1f %16.1f\n", size, semi, user)
		if size == 131072 {
			r.metric("semi_128k_mbps", semi)
			r.metric("user_128k_mbps", user)
		}
	}
	fmt.Fprintf(&b, "\nat 128 KB the kernel trap adds ~4 µs to a ~900 µs transfer: the\nbandwidth curves coincide, exactly the paper's point.\n")
	r.Text = b.String()
	return r
}

// ablationPipeline compares the pipelined intra-node shared-memory
// path against a store-and-forward variant (one giant chunk): the
// paper says BCL "reduced the extra overhead by using the pipeline
// message passing technique". The benefit is single-message latency:
// with pipelining the copy-out overlaps the copy-in chunk by chunk;
// without it the second copy waits for the whole first.
func ablationPipeline() *Report {
	r := newReport("ablation-pipeline", "Intra-node pipelining (paper: pipelined shm copies hide the extra copy)")
	pipelined := hw.DAWNING3000()
	storeFwd := hw.DAWNING3000().Clone()
	storeFwd.ShmChunk = 1 << 30 // one chunk: copy-in completes before copy-out starts
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %18s %20s\n", "bytes", "pipelined latency", "store-and-fwd latency")
	var pBig, sBig float64
	for _, size := range []int{16384, 65536, 262144} {
		plat := us(bclLatency(pipelined, true, size))
		slat := us(bclLatency(storeFwd, true, size))
		fmt.Fprintf(&b, "%10d %16.1fus %18.1fus\n", size, plat, slat)
		if size == 262144 {
			pBig, sBig = plat, slat
		}
	}
	fmt.Fprintf(&b, "\nat 256 KB the pipelined path delivers in %.0f µs, store-and-forward\nin %.0f µs: the second copy is hidden behind the first.\n", pBig, sBig)
	r.Text = b.String()
	r.metric("pipelined_us", pBig)
	r.metric("storefwd_us", sBig)
	return r
}
