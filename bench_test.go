package bcl

// One benchmark per table and figure of the paper's evaluation
// section, plus the design-choice ablations. Each benchmark runs the
// corresponding experiment from internal/bench, reports its key
// numbers as benchmark metrics, and logs the full formatted table (use
// `go test -bench . -v` to see them).
//
// Times and bandwidths are *virtual*: the cluster is a deterministic
// discrete-event simulation calibrated to the DAWNING-3000 constants
// the paper reports, so the metrics are reproducible bit for bit.

import (
	"testing"

	"bcl/internal/bench"
)

func runReport(b *testing.B, id string) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.Run(id, 1)
	}
	if r == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for k, v := range r.Metrics {
		b.ReportMetric(v, k)
	}
	b.Log("\n" + r.String())
}

// BenchmarkTable1 reproduces Table 1: OS trappings, interrupts and NIC
// access location for the three communication architectures.
func BenchmarkTable1(b *testing.B) { runReport(b, "table1") }

// BenchmarkOverheads reproduces the section-5 CPU overheads: 7.04 µs
// send, 0.82 µs completion, 1.01 µs receive.
func BenchmarkOverheads(b *testing.B) { runReport(b, "overheads") }

// BenchmarkFigure5 reproduces the transmission timeline.
func BenchmarkFigure5(b *testing.B) { runReport(b, "fig5") }

// BenchmarkFigure6 reproduces the reception timeline.
func BenchmarkFigure6(b *testing.B) { runReport(b, "fig6") }

// BenchmarkFigure7 reproduces the one-way latency timeline and the
// semi-user vs user-level gap (paper: +4.17 µs ≈ 22%).
func BenchmarkFigure7(b *testing.B) { runReport(b, "fig7") }

// BenchmarkFigure8 reproduces latency vs message size (min 18.3 µs
// inter-node, 2.7 µs intra-node).
func BenchmarkFigure8(b *testing.B) { runReport(b, "fig8") }

// BenchmarkFigure9 reproduces bandwidth vs message size (146 MB/s
// inter-node, 391 MB/s intra-node, half-bandwidth under 4 KB).
func BenchmarkFigure9(b *testing.B) { runReport(b, "fig9") }

// BenchmarkTable2 reproduces the protocol comparison (BCL, GM-like,
// AM-II-like, BIP-like, plus a kernel-level row).
func BenchmarkTable2(b *testing.B) { runReport(b, "table2") }

// BenchmarkTable3 reproduces MPI and PVM over BCL.
func BenchmarkTable3(b *testing.B) { runReport(b, "table3") }

// BenchmarkAblationPIO sweeps PCI PIO cost ("a good motherboard can
// improve the I/O performance heavily").
func BenchmarkAblationPIO(b *testing.B) { runReport(b, "ablation-pio") }

// BenchmarkAblationCPU sweeps host CPU speed ("a faster CPU will
// reduce these overheads").
func BenchmarkAblationCPU(b *testing.B) { runReport(b, "ablation-cpu") }

// BenchmarkAblationReliability strips the firmware reliability
// protocol (the 5.65 µs the paper attributes to it).
func BenchmarkAblationReliability(b *testing.B) { runReport(b, "ablation-reliability") }

// BenchmarkAblationKernelPath shows the kernel trap does not affect
// bandwidth (paper: +4.17 µs is ~0.4% at 128 KB).
func BenchmarkAblationKernelPath(b *testing.B) { runReport(b, "ablation-kernelpath") }

// BenchmarkAblationPipeline shows the intra-node pipelining win.
func BenchmarkAblationPipeline(b *testing.B) { runReport(b, "ablation-pipeline") }

// BenchmarkAblationWindow sweeps the firmware's go-back-N window.
func BenchmarkAblationWindow(b *testing.B) { runReport(b, "ablation-window") }

// BenchmarkFabrics runs identical BCL code over Myrinet, the nwrc 2-D
// mesh, and the heterogeneous cluster-of-clusters composite.
func BenchmarkFabrics(b *testing.B) { runReport(b, "fabrics") }

// BenchmarkScale times collectives up to the machine's 70 nodes.
func BenchmarkScale(b *testing.B) { runReport(b, "scale") }

// BenchmarkAblationIntraPath compares the paper's three intra-node
// strategies (§4.2): NIC loopback, shared memory, direct copy.
func BenchmarkAblationIntraPath(b *testing.B) { runReport(b, "ablation-intrapath") }
