// Quickstart: build a service chain on one SDNFV host with NF SDK v2,
// push traffic through it, and print the counters.
//
// The chain is Firewall -> Counter -> FlowTally -> Shaper, compiled from
// a service graph exactly as the SDNFV Application would do it
// (§3.2–3.3), running on the real concurrent data-plane engine.
// FlowTally is written here from scratch to show the v2 SDK surface: the
// batch-first ProcessBatch interface, the Init/Close lifecycle hooks, and
// the engine-owned per-flow state store that the host can inspect from
// outside the NF.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/packet"
	"sdnfv/internal/traffic"
)

const (
	svcFirewall flowtable.ServiceID = 1
	svcCounter  flowtable.ServiceID = 2
	svcTally    flowtable.ServiceID = 3
	svcShaper   flowtable.ServiceID = 4
)

// flowTally is a complete SDK v2 network function: it counts packets per
// flow in the engine-owned flow store. The engine hands it whole bursts;
// decisions default to "follow the flow table", so a monitoring NF writes
// none. State put into ctx.FlowState survives NF restarts and is readable
// by the manager (see the host.FlowState call in main).
type flowTally struct {
	flows *nf.FlowState
}

func (t *flowTally) Name() string   { return "flow-tally" }
func (t *flowTally) ReadOnly() bool { return true }

// Init runs once before any packet; grab the engine-owned store.
func (t *flowTally) Init(ctx *nf.Context) error {
	t.flows = ctx.FlowState()
	return nil
}

// Close runs on Host.Stop and on NF replacement.
func (t *flowTally) Close() error { return nil }

// ProcessBatch handles one burst; batch[i] pairs with out[i] (pre-zeroed
// to Default, so there is nothing to write for pass-through monitoring).
func (t *flowTally) ProcessBatch(_ *nf.Context, batch []nf.Packet, _ []nf.Decision) {
	for i := range batch {
		n := uint64(0)
		if v, ok := t.flows.Get(batch[i].Key); ok {
			n = v.(uint64)
		}
		t.flows.Set(batch[i].Key, n+1)
	}
}

func main() {
	// 1. Describe the application as a service graph.
	g, err := graph.Chain("quickstart",
		graph.Vertex{Service: svcFirewall, Name: "firewall", ReadOnly: true},
		graph.Vertex{Service: svcCounter, Name: "counter", ReadOnly: true},
		graph.Vertex{Service: svcTally, Name: "flow-tally", ReadOnly: true},
		graph.Vertex{Service: svcShaper, Name: "shaper", ReadOnly: false},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(g)

	// 2. Build a host, register the NFs, and install the compiled rules.
	host := dataplane.NewHost(dataplane.Config{PoolSize: 1024, TXThreads: 1})
	host.BindIngress(0)
	fw := &nfs.Firewall{DefaultAllow: true}
	counter := &nfs.Counter{}
	tally := &flowTally{}
	start := time.Now()
	shaper := &nfs.Shaper{
		RateBps:    50e6,
		BurstBytes: 16e3,
		Now:        func() float64 { return time.Since(start).Seconds() },
	}
	if _, err := host.AddNF(svcFirewall, fw, 0); err != nil {
		log.Fatal(err)
	}
	if _, err := host.AddNF(svcCounter, counter, 0); err != nil {
		log.Fatal(err)
	}
	if _, err := host.AddNF(svcTally, tally, 0); err != nil {
		log.Fatal(err)
	}
	if _, err := host.AddNF(svcShaper, shaper, 0); err != nil {
		log.Fatal(err)
	}
	if err := host.InstallGraph(g, 0, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nflow table:")
	fmt.Println(host.Table().Dump())

	// 3. Count transmitted packets at the egress port.
	done := make(chan struct{})
	var out int
	host.BindDefault(func(port int, data []byte, _ *dataplane.Desc) {
		out++
		if out == 2000 {
			close(done)
		}
	})
	if err := host.Start(); err != nil {
		log.Fatal(err)
	}
	defer host.Stop()

	// 4. Offer 2000 packets across two synthetic flows, paced under the
	// shaper's 50 Mbps rate (bursts of 20 every 2 ms ≈ 41 Mbps).
	factory := traffic.NewFactory()
	specs := []traffic.FlowSpec{traffic.Flow(1, 512, 0), traffic.Flow(2, 512, 0)}
	for i := 0; i < 2000; i++ {
		frame, err := factory.Frame(specs[i%len(specs)], time.Now().UnixNano())
		if err != nil {
			log.Fatal(err)
		}
		for errors.Is(host.Ingest(0, frame), dataplane.ErrIngestRefused) {
			time.Sleep(10 * time.Microsecond) // NIC ring momentarily full
		}
		if i%20 == 19 {
			time.Sleep(2 * time.Millisecond)
		}
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		fmt.Println("timed out waiting for packets (shaper may be dropping)")
	}
	host.WaitIdle(2 * time.Second)

	st := host.Stats()
	fmt.Printf("\nrx=%d tx=%d drops=%d\n", st.RxPackets, st.TxPackets, st.Drops)
	fmt.Printf("firewall: allowed=%d denied=%d\n", fw.Allowed(), fw.Denied())
	fmt.Printf("counter:  %d packets, %d bytes\n", counter.Packets(), counter.Bytes())
	fmt.Printf("shaper:   passed=%d shaped=%d\n", shaper.Passed(), shaper.Shaped())

	// 5. The manager side of §3.4: inspect the NF's per-flow state through
	// the engine-owned store, without touching the NF itself.
	fmt.Println("flow tally (read via host.FlowState):")
	host.FlowState(svcTally, 0).Range(func(k packet.FlowKey, v any) bool {
		fmt.Printf("  %s: %d packets\n", k, v.(uint64))
		return true
	})
}
