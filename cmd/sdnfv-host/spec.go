package main

// Spec mode (-spec FILE): instead of the imperative single-host setup,
// the process boots the entire declared cluster in-process — one
// dataplane host per spec host wired through a cluster fabric — and
// hands desired state to the reconcile loop. NFs boot through the
// orchestrator, rules install through the incremental recompile path,
// and autoscale bounds come from the spec (which is why -scale-min and
// -scale-max conflict with -spec). The telemetry surface gains
// /state/spec, /state/reconcile, and POST /apply/spec, so a new spec
// generation can be applied to the running process with
// `sdnfv-ctl apply`.

import (
	"errors"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/autoscale"
	"sdnfv/internal/cluster"
	"sdnfv/internal/controller"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/reconcile"
	"sdnfv/internal/spec"
	"sdnfv/internal/telemetry"
	"sdnfv/internal/traffic"
)

// builtinNFs is the registry of NF implementations this binary ships;
// spec `nf` bindings resolve against these names.
func builtinNFs() *spec.NFRegistry {
	start := time.Now()
	reg := spec.NewNFRegistry()
	for name, factory := range map[string]func() nf.BatchFunction{
		"firewall": func() nf.BatchFunction { return &nfs.Firewall{DefaultAllow: true} },
		"counter":  func() nf.BatchFunction { return &nfs.Counter{} },
		"shaper": func() nf.BatchFunction {
			return &nfs.Shaper{
				RateBps: 1e9, BurstBytes: 1e6,
				Now: func() float64 { return time.Since(start).Seconds() },
			}
		},
	} {
		if err := reg.Register(name, factory); err != nil {
			log.Fatal(err)
		}
	}
	return reg
}

// runSpec is the -spec entrypoint. It blocks until the generator
// finishes (or a signal arrives), then drains and prints per-host
// stats plus the final reconcile status.
func runSpec(path string, packets, flows int, telemetryAddr string) {
	sp, err := spec.Load(path)
	if err != nil {
		log.Fatalf("sdnfv-host: %v", err)
	}
	nfReg := builtinNFs()
	if err := sp.BindCheck(nfReg); err != nil {
		log.Fatalf("sdnfv-host: %v (built-ins: firewall, counter, shaper)", err)
	}
	dps := reconcile.DatapathsOf(sp)

	ctl := controller.New(controller.Config{Workers: 2})
	ctl.Start()
	defer ctl.Stop()

	fab := cluster.New()
	hosts := map[string]*dataplane.Host{}
	// Lifecycle: the spec-wide flow_timeouts stanza becomes every host
	// table's install-time default; per-service stanzas override at that
	// scope. Any stanza at all turns the background sweeper on.
	flowIdle, flowHard := sp.FlowTimeouts.Durations()
	var sweep time.Duration
	if sp.HasFlowLifecycle() {
		sweep = flowtable.DefaultSweepInterval
	}
	for _, name := range sp.HostNames() {
		h := dataplane.NewHost(dataplane.Config{
			PoolSize: 4096, RingSize: 1024, TXThreads: 1,
			Control:         ctl.Session(dps[name]),
			FlowIdleTimeout: flowIdle, FlowHardTimeout: flowHard,
			FlowSweepInterval: sweep,
		})
		for i := range sp.Services {
			if ft := sp.Services[i].FlowTimeouts; ft != nil {
				idle, hard := ft.Durations()
				h.Table().SetScopeTimeouts(sp.Services[i].ID, idle, hard)
			}
		}
		hosts[name] = h
		if err := fab.AddHost(dps[name], name, h); err != nil {
			log.Fatal(err)
		}
	}
	if err := reconcile.WireLinks(fab, sp, cluster.LinkConfig{}); err != nil {
		log.Fatal(err)
	}

	g, err := sp.Graph()
	if err != nil {
		log.Fatal(err)
	}
	a := app.New(app.Config{IngressPort: sp.Ingress.Port, EgressPort: sp.EgressPort, WildcardRules: true})
	if err := a.RegisterGraph(g); err != nil {
		log.Fatal(err)
	}
	a.SetDownstream(fab)
	ctl.SetNorthbound(a)

	clock := autoscale.NewRealClock()
	orch := orchestrator.New(orchestrator.Config{BootDelaySec: 0.05, StandbyDelaySec: 0.05, Standby: 1}, clock)
	for name, h := range hosts {
		orch.AddHost(dataplane.NamedHost{Name: name, Host: h})
	}
	act := &reconcile.ClusterActuators{
		Fabric: fab, App: a, Orch: orch, NFs: nfReg, Clock: clock,
		Scale:     autoscale.Config{IntervalSec: 0.05, CooldownSec: 0.25},
		Datapaths: dps,
	}
	defer act.Close()
	rec := reconcile.New(reconcile.Config{IntervalSec: 0.05}, reconcile.ClusterObserver{Fabric: fab, Datapaths: dps}, act, clock)

	reg := telemetry.NewRegistry()
	for name, h := range hosts {
		telemetry.RegisterHost(reg, name, dps[name], h)
	}
	telemetry.RegisterReconcile(reg, rec)

	gen, _, err := rec.Apply(sp)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("sdnfv-host: spec %q generation %d applied (%d hosts, %d services)",
		sp.Name, gen, len(sp.Hosts), len(sp.Services))

	var delivered atomic.Uint64
	for _, h := range hosts {
		h.BindDefault(func(int, []byte, *dataplane.Desc) { delivered.Add(1) })
	}
	if err := fab.Start(); err != nil {
		log.Fatal(err)
	}
	defer fab.Stop()
	rec.Start()
	defer rec.Stop()

	// Converge before generating: every placement up, routing in force.
	deadline := time.Now().Add(10 * time.Second)
	for !rec.Status().Converged {
		if time.Now().After(deadline) {
			log.Fatalf("sdnfv-host: spec never converged: %+v", rec.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := rec.Status()
	log.Printf("sdnfv-host: converged after %d ticks, placement %v", st.Ticks, st.Placement)

	if telemetryAddr != "" {
		srv, err := telemetry.Serve(telemetryAddr, reg)
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		defer srv.Close()
		log.Printf("sdnfv-host: telemetry on http://%s/metrics (apply specs at /apply/spec)", srv.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	ingress := hosts[sp.Ingress.Host]
	if packets == 0 {
		log.Printf("sdnfv-host: serving declared cluster, ^C to stop")
		s := <-sigs
		log.Printf("sdnfv-host: %s received, draining", s)
	} else {
		ingress.BindIngress(sp.Ingress.Port)
		factory := traffic.NewFactory()
	gen:
		for i := 0; i < packets; i++ {
			select {
			case s := <-sigs:
				log.Printf("sdnfv-host: %s received, stopping generator", s)
				break gen
			default:
			}
			fs := traffic.Flow(i%flows, 512, 0)
			frame, err := factory.Frame(fs, time.Now().UnixNano())
			if err != nil {
				log.Fatal(err)
			}
			for errors.Is(ingress.Ingest(sp.Ingress.Port, frame), dataplane.ErrIngestRefused) {
				time.Sleep(5 * time.Microsecond)
			}
		}
	}
	if !fab.WaitIdle(10 * time.Second) {
		log.Printf("sdnfv-host: drain timed out — packets still in flight")
	}

	rec.Stop()
	fab.Stop()
	final := rec.Status()
	for _, name := range sp.HostNames() {
		hs := hosts[name].Stats()
		log.Printf("sdnfv-host: %s rx=%d tx=%d drops=%d overflows=%d txdrops=%d rxdrops=%d misses=%d",
			name, hs.RxPackets, hs.TxPackets, hs.Drops, hs.Overflows, hs.TxDrops, hs.RxDrops, hs.Misses)
	}
	log.Printf("sdnfv-host: delivered=%d generation=%d converged=%v drift=%d actions ok=%d failed=%d",
		delivered.Load(), final.Generation, final.Converged, len(final.Drift), final.ActionsOK, final.ActionsFailed)
	fmt.Printf("spec mode: generation=%d converged=%v delivered=%d\n",
		final.Generation, final.Converged, delivered.Load())
}
