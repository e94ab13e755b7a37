// Command sdnfv-host runs one SDNFV NF host: the NF Manager data plane
// with a set of demo NFs, connected to an sdnfv-ctl controller over TCP
// through the typed control API. Flow-table misses are pipelined to the
// controller by the Flow Controller thread (whole bursts of PACKET_INs
// in flight at once, §4.1); returned FLOW_MODs are batch-installed and
// traffic proceeds locally. Cross-layer NF messages are forwarded
// upstream as NF_MESSAGEs.
//
// Without a reachable controller the host still runs, using a
// pre-populated local chain. A built-in traffic generator exercises the
// path. SIGINT/SIGTERM stop the generator, drain the data plane, and
// exit 0.
//
// Real packet I/O: -port binds a pluggable transport behind a NIC port
// (repeatable), so two hosts can exchange frames over actual sockets —
//
//	sdnfv-host -port 1=udp:127.0.0.1:7001/127.0.0.1:7002 -packets 10000
//	sdnfv-host -port 0=udp:127.0.0.1:7002 -packets 0
//
// runs a sender whose chain egresses over UDP loopback into a second
// process serving until SIGINT. -packets 0 means serve mode: no local
// generator, traffic comes in off the wire.
//
// Observability: -telemetry ADDR serves the Prometheus exporter at
// /metrics and the show/state API under /state/ (query it with
// `sdnfv-ctl show`); on shutdown the host prints one final exporter
// snapshot from the same registry.
//
//	sdnfv-host -controller 127.0.0.1:6653 -telemetry 127.0.0.1:9464 -packets 10000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdnfv/internal/autoscale"
	"sdnfv/internal/control"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/portio"
	"sdnfv/internal/telemetry"
	"sdnfv/internal/traffic"
)

func main() {
	ctlAddr := flag.String("controller", "", "controller address (empty = standalone with local rules)")
	datapath := flag.Uint64("datapath", 0, "datapath id announced to the controller (0 = anonymous); rules resolve scoped to this host")
	packets := flag.Int("packets", 10000, "packets to generate")
	flows := flag.Int("flows", 8, "concurrent synthetic flows")
	autoScale := flag.Bool("autoscale", true, "autoscale the counter service from its queue telemetry")
	scaleMin := flag.Int("scale-min", 1, "autoscale: minimum replicas")
	scaleMax := flag.Int("scale-max", 3, "autoscale: maximum replicas")
	flowIdle := flag.Duration("flow-idle", 0, "evict flow rules idle for this long (0 = never); starts the table sweeper")
	flowHard := flag.Duration("flow-hard", 0, "evict flow rules this long after install regardless of traffic (0 = never)")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics and /state/... on this address (e.g. 127.0.0.1:9464; empty = off)")
	specPath := flag.String("spec", "", "declarative deployment spec (JSON); boots the declared cluster under the reconcile loop instead of the imperative single-host setup")
	var ports portio.PortFlags
	flag.Var(&ports, "port", "bind a port driver, N=udp:LADDR[/RADDR] | N=tcp:ADDR | N=tcp-listen:ADDR | N=afpacket:IFACE (repeatable)")
	flag.Parse()

	if *specPath != "" {
		// In spec mode replica bounds, placement, and wiring all come
		// from the spec; flags that would contradict it are refused
		// rather than silently ignored.
		conflicts := map[string]string{
			"scale-min":  "autoscale bounds come from the spec's per-service scale stanza",
			"scale-max":  "autoscale bounds come from the spec's per-service scale stanza",
			"autoscale":  "the reconciler owns the autoscalers in spec mode",
			"controller": "spec mode runs its own in-process controller",
			"port":       "spec mode wires ports from the spec's links",
			"datapath":   "datapath ids come from the spec's host stanzas",
			"flow-idle":  "flow timeouts come from the spec's flow_timeouts stanza",
			"flow-hard":  "flow timeouts come from the spec's flow_timeouts stanza",
		}
		var conflict error
		flag.Visit(func(f *flag.Flag) {
			if why, ok := conflicts[f.Name]; ok && conflict == nil {
				conflict = fmt.Errorf("sdnfv-host: -%s conflicts with -spec: %s", f.Name, why)
			}
		})
		if conflict != nil {
			log.Fatal(conflict)
		}
		runSpec(*specPath, *packets, *flows, *telemetryAddr)
		return
	}

	cfg := dataplane.Config{
		PoolSize: 4096, TXThreads: 1,
		FlowIdleTimeout: *flowIdle, FlowHardTimeout: *flowHard,
	}
	if *ctlAddr != "" {
		dialCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		client, err := control.DialAs(dialCtx, *ctlAddr, control.DatapathID(*datapath))
		cancel()
		if err != nil {
			log.Fatalf("dial controller: %v", err)
		}
		defer client.Close()
		// The Flow Controller thread resolves misses over this channel
		// with pipelined XID-correlated PacketIns; the HELLO announced
		// our datapath id, so the controller registers this host's
		// session and scopes every FLOW_MOD to it.
		cfg.Control = client
		if f, err := client.Features(context.Background()); err == nil {
			log.Printf("sdnfv-host: control channel to %s up as datapath %#x (controller %#x)",
				*ctlAddr, *datapath, f.DatapathID)
		} else {
			log.Printf("sdnfv-host: control channel to %s up", *ctlAddr)
		}
	}

	host := dataplane.NewHost(cfg)
	start := time.Now()
	mustNF(host.AddNF(1, &nfs.Firewall{DefaultAllow: true}, 0))
	mustNF(host.AddNF(2, &nfs.Counter{}, 0))
	mustNF(host.AddNF(3, &nfs.Shaper{
		RateBps: 1e9, BurstBytes: 1e6,
		Now: func() float64 { return time.Since(start).Seconds() },
	}, 0))
	if cfg.Control == nil {
		// Standalone: pre-populate the chain locally.
		mustRule(host, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(1)}})
		mustRule(host, flowtable.Rule{Scope: 1, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(2)}})
		mustRule(host, flowtable.Rule{Scope: 2, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(3)}})
		mustRule(host, flowtable.Rule{Scope: 3, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(1)}})
	}

	var delivered int
	doneCh := make(chan struct{})
	host.BindDefault(func(int, []byte, *dataplane.Desc) {
		delivered++
		if delivered == *packets {
			close(doneCh)
		}
	})
	// Driver teardown runs after host.Stop (LIFO defers): the engine
	// drains through the sinks first, then each driver flushes its
	// egress queue onto the wire and closes its socket.
	var bindings []*portio.Binding
	defer func() {
		for _, b := range bindings {
			if err := b.Close(); err != nil {
				log.Printf("sdnfv-host: close port %d: %v", b.Port(), err)
			}
		}
	}()
	if err := host.Start(); err != nil {
		log.Fatal(err)
	}
	defer host.Stop()
	for _, ps := range ports.Ports {
		b, err := portio.Bind(host, ps.Port, ps.Driver)
		if err != nil {
			log.Fatalf("bind %s: %v", ps.Spec, err)
		}
		bindings = append(bindings, b)
		log.Printf("sdnfv-host: port %d bound to %s (%s)", ps.Port, ps.Driver.Name(), ps.Spec)
	}

	// Observability plane: the same registry backs the live exporter
	// (-telemetry) and the final shutdown snapshot, so what an operator
	// scrapes mid-run and what the host prints on exit come from one
	// code path.
	reg := telemetry.NewRegistry()
	telemetry.RegisterHost(reg, "host1", control.DatapathID(*datapath), host)

	// Elasticity loop (§3.3/§5 dynamic scaling): the counter service
	// scales between -scale-min and -scale-max replicas from its own
	// queue/overflow telemetry, actuating through the orchestrator
	// (standby VMs make boots fast; Retire drains flow-state-safely).
	var scaler *autoscale.Controller
	if *autoScale {
		clock := autoscale.NewRealClock()
		orch := orchestrator.New(orchestrator.Config{
			BootDelaySec: 0.5, StandbyDelaySec: 0.05, Standby: *scaleMax,
		}, clock)
		orch.AddHost(dataplane.NamedHost{Name: "host1", Host: host})
		scaler = autoscale.New(autoscale.Config{
			Min: *scaleMin, Max: *scaleMax,
			IntervalSec: 0.05, CooldownSec: 0.25,
		},
			autoscale.ServiceSource{Host: host, Service: 2, Orch: orch},
			autoscale.OrchestratorActuator{
				Orch: orch, HostName: "host1", Host: host, Service: 2,
				NewNF: func() nf.BatchFunction { return &nfs.Counter{} },
			}, clock)
		scaler.Start()
		defer scaler.Stop()
		telemetry.RegisterAutoscale(reg, flowtable.ServiceID(2).String(), scaler)
	}

	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(*telemetryAddr, reg)
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		defer srv.Close()
		log.Printf("sdnfv-host: telemetry on http://%s/metrics (state index at /state)", srv.Addr())
	}

	// Graceful shutdown: a signal stops the generator loop and falls
	// through to the drain + stats path below.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	interrupted := false

	if *packets == 0 {
		// Serve mode: no local generator — traffic arrives off the wire
		// through the bound port drivers until a signal stops us.
		log.Printf("sdnfv-host: serving (%d port driver(s) bound), ^C to stop", len(bindings))
		s := <-sigs
		log.Printf("sdnfv-host: %s received, draining", s)
	} else {
		host.BindIngress(0)
		factory := traffic.NewFactory()
	gen:
		for i := 0; i < *packets; i++ {
			select {
			case s := <-sigs:
				log.Printf("sdnfv-host: %s received, stopping generator", s)
				interrupted = true
				break gen
			default:
			}
			spec := traffic.Flow(i%*flows, 512, 0)
			frame, err := factory.Frame(spec, time.Now().UnixNano())
			if err != nil {
				log.Fatal(err)
			}
			for errors.Is(host.Ingest(0, frame), dataplane.ErrIngestRefused) {
				time.Sleep(5 * time.Microsecond)
			}
		}
		// With port drivers bound, deliveries happen on the far side of
		// the wire — fall through to the idle drain instead of waiting
		// for a local delivery count that will never be reached.
		if !interrupted && len(bindings) == 0 {
			select {
			case <-doneCh:
			case s := <-sigs:
				log.Printf("sdnfv-host: %s received, draining", s)
			case <-time.After(30 * time.Second):
				log.Printf("sdnfv-host: timed out waiting for deliveries")
			}
		}
	}
	host.WaitIdle(5 * time.Second)

	// Ordered shutdown before the final stats read so the wire counters
	// reconcile: engine drained through the sinks, then every driver
	// flushes its egress queue and closes. The deferred copies of these
	// calls are idempotent no-ops after this.
	if scaler != nil {
		scaler.Stop()
	}
	host.Stop()
	for _, b := range bindings {
		if err := b.Close(); err != nil {
			log.Printf("sdnfv-host: close port %d: %v", b.Port(), err)
		}
	}

	st := host.Stats()
	log.Printf("sdnfv-host: rx=%d tx=%d drops=%d overflows=%d txdrops=%d rxdrops=%d misses=%d rules=%d",
		st.RxPackets, st.TxPackets, st.Drops, st.Overflows, st.TxDrops, st.RxDrops, st.Misses, st.Table.Rules)
	// Final snapshot through the exporter itself: the same families a
	// live scrape would see, per-port and per-replica counters included.
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		log.Printf("sdnfv-host: final snapshot: %v", err)
	}
	if scaler != nil {
		for _, ev := range scaler.Events() {
			log.Printf("sdnfv-host: autoscale %s at t=%.2fs (replicas=%d backlog=%d err=%v)",
				ev.Decision, ev.At, ev.Replicas, ev.Backlog, ev.Err)
		}
	}
	fmt.Println(host.Table().Dump())
}

func mustNF(_ *dataplane.Instance, err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func mustRule(h *dataplane.Host, r flowtable.Rule) {
	if _, err := h.Table().Add(r); err != nil {
		log.Fatal(err)
	}
}
