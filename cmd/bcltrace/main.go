// Command bcltrace prints the per-stage timeline of one BCL message
// across the simulated stack — the moral equivalent of the paper's
// Figures 5-7 — by running a traced 0-length send between two nodes.
//
// Usage:
//
//	bcltrace                    # full one-way timeline (Fig. 7 view)
//	bcltrace -side send         # transmission stages only (Fig. 5 view)
//	bcltrace -side recv         # reception stages only (Fig. 6 view)
//	bcltrace -chrome > t.json   # Chrome trace-event JSON (load in
//	                            # chrome://tracing or ui.perfetto.dev)
//	bcltrace -flow              # causal flow of one message whose first
//	                            # DATA packet is dropped, so the trace
//	                            # includes the retransmission
//	bcltrace -flow -chrome      # the same flow as Chrome JSON with
//	                            # "bcl-flow" arrows linking the rows
//	bcltrace -coll              # causal flow of one NIC-offloaded
//	                            # broadcast + barrier: the root's single
//	                            # trap, the tree fanout, landing-ring
//	                            # DMAs, and the combine back up
//	bcltrace -coll -chrome      # the same collective flow as Chrome JSON
//	bcltrace -crash             # causal flow of one message across a
//	                            # firmware crash: watchdog trip, journal
//	                            # replay, reboot, epoch resync, rewound
//	                            # retransmission, exactly-once delivery
//	bcltrace -crash -chrome     # the same crash flow as Chrome JSON
//	bcltrace -rpc               # causal flow of cross-shard transactions
//	                            # through the service tier: client issue,
//	                            # coordinator begin, participant prepares,
//	                            # commit applies, acks and the reply —
//	                            # one flow id across three hosts
//	bcltrace -rpc -chrome       # the same 2PC flows as Chrome JSON
//	bcltrace -prof              # virtual-time attribution table for one
//	                            # traced 8-byte eager send: exclusive
//	                            # (node, layer, phase) times, per-CPU
//	                            # busy/idle, host-CPU overlap
//	bcltrace -health            # pretty-print the first postmortem
//	                            # bundle of the healthwatch fault phase
//	bcltrace -health bundle.json
//	                            # pretty-print a saved bcl-postmortem/v1
//	                            # bundle (e.g. a CI gate-failure artifact)
//	bcltrace -slow              # ranked slow-request log of the reqobs
//	                            # chaos phase: per-request phase
//	                            # breakdown (queue, wire, exec, 2PC,
//	                            # invalidation-wait) with retention
//	                            # reasons, from tail-sampled span trees
//	bcltrace -slow -seed 7      # the same under another fault schedule
package main

import (
	"flag"
	"fmt"
	"os"

	"bcl/internal/bench"
	"bcl/internal/obs/health"
)

func main() {
	side := flag.String("side", "both", "which stages to print: send, recv, or both")
	chrome := flag.Bool("chrome", false, "emit Chrome trace-event JSON instead of text")
	flow := flag.Bool("flow", false, "trace the causal flow of one message under a forced packet drop")
	coll := flag.Bool("coll", false, "trace the causal flow of one NIC-offloaded broadcast + barrier")
	crash := flag.Bool("crash", false, "trace the causal flow of one message across a firmware crash + watchdog recovery")
	rpc := flag.Bool("rpc", false, "trace the causal flow of cross-shard transactions through the service tier")
	profFlag := flag.Bool("prof", false, "print the virtual-time attribution table for one traced message")
	healthFlag := flag.Bool("health", false, "pretty-print a bcl-postmortem/v1 bundle (a file argument, or the healthwatch fault phase's first bundle)")
	slowFlag := flag.Bool("slow", false, "print the ranked slow-request log of the reqobs chaos phase")
	seed := flag.Uint64("seed", 1, "fault-schedule seed for -slow")
	flag.Parse()
	if *slowFlag {
		fmt.Print(bench.ReqObsSlowLog(*seed))
		return
	}
	if *healthFlag {
		var data []byte
		var err error
		if flag.NArg() > 0 {
			data, err = os.ReadFile(flag.Arg(0))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bcltrace: %v\n", err)
				os.Exit(1)
			}
		} else if data = bench.HealthWatchBundle(1); data == nil {
			fmt.Fprintf(os.Stderr, "bcltrace: healthwatch fault phase emitted no bundle\n")
			os.Exit(1)
		}
		b, err := health.DecodeBundle(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcltrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(b.Text())
		return
	}
	id := "fig7"
	switch {
	case *profFlag:
		id = "profile"
	case *coll:
		id = "collflow"
	case *crash:
		id = "crashflow"
	case *rpc:
		id = "rpcflow"
	case *flow:
		id = "flowtrace"
	case *side == "send":
		id = "fig5"
	case *side == "recv":
		id = "fig6"
	case *side != "both":
		fmt.Fprintf(os.Stderr, "bcltrace: -side must be send, recv or both\n")
		os.Exit(2)
	}
	if *chrome && !*profFlag {
		out, err := bench.ChromeJSON(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcltrace: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		fmt.Println()
		return
	}
	fmt.Print(bench.Run(id, 1).String())
}
