package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/packet"
	"sdnfv/internal/portio"
)

// limits are a workload's fixed rates and pass criteria. They are part
// of the benchmark definition: changing one changes what is measured.
type limits struct {
	nominalKpps  float64 // latency/loss are reported at this rate
	overloadKpps float64 // above the knee: shows livelock
	p99LimitUs   float64 // ladder pass: p99 (first-packet p99 if firstPkt)
	lossLimit    float64 // ladder pass: (offered-delivered-intended)/offered
	ladderBase   float64 // kpps of rung 0
	ladderRatio  float64 // geometric step
	ladderRungs  int
	firstPkt     bool
}

func (l limits) rung(i int) float64 { return l.ladderBase * math.Pow(l.ladderRatio, float64(i)) }

// workload names a rig constructor and its limits.
type workload struct {
	name  string
	why   string
	lim   limits
	setup func(seed int64, t *tracer) (*rig, error)
}

var workloads = []workload{
	{
		name: "fastpath",
		why: "per-packet engine cost at 64 B with 65,536 Zipf flows pre-installed as exact rules " +
			"(working set above L2); control plane and portio idle",
		lim: limits{
			nominalKpps: 40, overloadKpps: 1000, p99LimitUs: 50000, lossLimit: 0.001,
			ladderBase: 80, ladderRatio: 1.05, ladderRungs: 64,
		},
		setup: setupFastpath,
	},
	{
		name: "flowsetup",
		why: "every flow new (4 packets each), resolved reactively host FC -> controller -> app in " +
			"per-flow exact mode, idle-timeout eviction; stresses the miss path and flowtable writes",
		lim: limits{
			nominalKpps: 20, overloadKpps: 200, p99LimitUs: 100000, lossLimit: 0.001,
			ladderBase: 40, ladderRatio: 1.05, ladderRungs: 64, firstPkt: true,
		},
		setup: setupFlowsetup,
	},
	{
		name: "appaware",
		why: "anomaly graph firewall->sampler->(ddos||ids)->out with scrubber; 256-1400 B HTTP-like TCP, " +
			"~1% flows carry an IDS signature once; payload scanning and parallel join dominate",
		lim: limits{
			nominalKpps: 30, overloadKpps: 400, p99LimitUs: 50000, lossLimit: 0.001,
			ladderBase: 60, ladderRatio: 1.05, ladderRungs: 64,
		},
		setup: setupAppaware,
	},
	{
		name: "wire_udp",
		why: "two hosts in one process joined by portio UDP over loopback (one syscall per frame); " +
			"the only workload where socket drivers carry the load",
		lim: limits{
			nominalKpps: 15, overloadKpps: 200, p99LimitUs: 100000, lossLimit: 0.001,
			ladderBase: 30, ladderRatio: 1.05, ladderRungs: 64,
		},
		setup: setupWireUDP,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// hostConfig is every workload's engine configuration. One TX thread,
// as in the repository's examples and benches: on a 2-core machine a
// second spinning TX thread only competes with the NF threads. Rings and
// pool are four times the defaults so that the burst a generator
// catching up after a machine stall offers is queued, not refused, at
// the nominal rates.
func hostConfig() dataplane.Config {
	return dataplane.Config{TXThreads: 1, RingSize: 4096, PoolSize: 16384}
}

// Service IDs of the chains.
const (
	svcFirewall flowtable.ServiceID = 1
	svcCounter  flowtable.ServiceID = 2
	svcNoop     flowtable.ServiceID = 3
	svcSampler  flowtable.ServiceID = 2
	svcDDoS     flowtable.ServiceID = 3
	svcIDS      flowtable.ServiceID = 4
	svcScrubber flowtable.ServiceID = 5
)

// rig is one workload wired to the real engine and ready to take
// traffic.
type rig struct {
	hosts []*dataplane.Host
	in    portio.Ingress // where the generator offers bursts
	st    stream
	sink  *sink
	t     *tracer // nil when untraced
	ctl   *controller.Controller
	app   *app.App
	// parallel names the parallel fan-out members, whose refused offers
	// relax the host identity (see checkIdentities).
	parallel []flowtable.ServiceID
	// scrubbing marks the appaware rig, whose scrubber records the frames
	// it sees for checkScrubbing.
	scrubbing bool
	// wire drivers (wire_udp): A's egress, B's ingress.
	send, recv *portio.UDPDriver
	// replay rebuilds the workload's compiled rules and its key stream
	// for the flowtable replay.
	replay  func() ([]flowtable.Rule, []packet.FlowKey)
	closers []func()
	nb      *tracedNorthbound // traced runs with a controller
}

func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// wrapNF returns fn, traced as nf.<name> when tracing.
func wrapNF(t *tracer, name string, fn nf.BatchFunction) nf.BatchFunction {
	if t == nil {
		return fn
	}
	return &tracedNF{inner: fn, r: t.rec("nf."+name, true), t: t}
}

func wrapSink(t *tracer, name string, s dataplane.PortSink) dataplane.PortSink {
	if t == nil {
		return s
	}
	return tracedSink(t, t.rec(name, true), s)
}

func wrapIngress(t *tracer, name string, in portio.Ingress) portio.Ingress {
	if t == nil {
		return in
	}
	return tracedIngress{inner: in, r: t.rec(name, true), t: t}
}

// chainGraph is the sequential firewall -> counter -> noop chain. The
// vertices are declared writable so the compiler keeps them in
// sequence instead of fanning the read-only NFs out in parallel.
func chainGraph() (*graph.Graph, error) {
	return graph.Chain("chain",
		graph.Vertex{Service: svcFirewall, Name: "firewall", ReadOnly: false},
		graph.Vertex{Service: svcCounter, Name: "counter", ReadOnly: false},
		graph.Vertex{Service: svcNoop, Name: "noop", ReadOnly: false},
	)
}

func addChainNFs(h *dataplane.Host, t *tracer) error {
	for _, n := range []struct {
		svc  flowtable.ServiceID
		name string
		fn   nf.BatchFunction
	}{
		{svcFirewall, "firewall", &nfs.Firewall{DefaultAllow: true}},
		{svcCounter, "counter", &nfs.Counter{}},
		{svcNoop, "noop", nfs.NoOp{}},
	} {
		if _, err := h.AddNF(n.svc, wrapNF(t, n.name, n.fn), 0); err != nil {
			return fmt.Errorf("add %s: %w", n.name, err)
		}
	}
	return nil
}

// startHost starts h, registering its stop with the rig.
func (r *rig) startHost(h *dataplane.Host) error {
	if err := h.Start(); err != nil {
		return err
	}
	r.hosts = append(r.hosts, h)
	r.closers = append(r.closers, h.Stop)
	return nil
}

func setupFastpath(seed int64, t *tracer) (*rig, error) {
	const flows = 65536
	st := newZipfStream(seed, flows, 1.1, 64)
	r := &rig{st: st, sink: &sink{st: st}, t: t}
	g, err := chainGraph()
	if err != nil {
		return nil, err
	}
	a := app.New(app.Config{IngressPort: 0, EgressPort: 1})
	if err := a.RegisterGraph(g); err != nil {
		return nil, err
	}
	compile := func(n int) ([]flowtable.Rule, error) {
		rules := make([]flowtable.Rule, 0, 4*n)
		for f := 0; f < n; f++ {
			rs, err := a.CompileRules(flowtable.Port(0), st.key(uint32(f)), true)
			if err != nil {
				return nil, err
			}
			rules = append(rules, rs...)
		}
		return rules, nil
	}
	rules, err := compile(flows)
	if err != nil {
		return nil, err
	}
	h := dataplane.NewHost(hostConfig())
	if err := addChainNFs(h, t); err != nil {
		return nil, err
	}
	if _, err := h.Table().AddBatch(rules); err != nil {
		return nil, err
	}
	h.BindPort(1, wrapSink(t, "sink", r.sink.egress))
	h.BindIngress(0)
	if err := r.startHost(h); err != nil {
		return nil, err
	}
	r.in = wrapIngress(t, "ingress", hostPort{h: h, port: 0})
	r.replay = func() ([]flowtable.Rule, []packet.FlowKey) {
		rs, _ := compile(flows)
		return rs, replayKeys(st, 1<<18)
	}
	return r, nil
}

// replayKeys is the first n keys of the stream, in offer order.
func replayKeys(st stream, n int) []packet.FlowKey {
	keys := make([]packet.FlowKey, n)
	for i := range keys {
		f, _ := st.flowOf(uint64(i))
		keys[i] = st.key(f)
	}
	return keys
}

// withController builds the application tier and an in-process
// controller (1 worker, as POX) behind the host's southbound.
func (r *rig) withController(cfg app.Config, g *graph.Graph) (control.Southbound, error) {
	a := app.New(cfg)
	if err := a.RegisterGraph(g); err != nil {
		return nil, err
	}
	ctl := controller.New(controller.Config{Workers: 1})
	var nb control.Northbound = a
	if r.t != nil {
		r.nb = newTracedNorthbound(r.t, a)
		nb = r.nb
	}
	ctl.SetNorthbound(nb)
	ctl.Start()
	r.closers = append(r.closers, ctl.Stop)
	r.ctl, r.app = ctl, a
	if r.t != nil {
		return newTracedSouthbound(r.t, ctl), nil
	}
	return ctl, nil
}

func setupFlowsetup(seed int64, t *tracer) (*rig, error) {
	st := newNewFlowStream(seed, 64)
	r := &rig{st: st, sink: &sink{st: st}, t: t}
	g, err := chainGraph()
	if err != nil {
		return nil, err
	}
	sb, err := r.withController(app.Config{IngressPort: 0, EgressPort: 1}, g)
	if err != nil {
		r.close()
		return nil, err
	}
	cfg := hostConfig()
	cfg.Control = sb
	cfg.FlowIdleTimeout = 100 * time.Millisecond
	cfg.FlowSweepInterval = 20 * time.Millisecond
	h := dataplane.NewHost(cfg)
	if err := addChainNFs(h, t); err != nil {
		r.close()
		return nil, err
	}
	h.BindPort(1, wrapSink(t, "sink", r.sink.egress))
	h.BindIngress(0)
	if err := r.startHost(h); err != nil {
		r.close()
		return nil, err
	}
	r.in = wrapIngress(t, "ingress", hostPort{h: h, port: 0})
	r.replay = func() ([]flowtable.Rule, []packet.FlowKey) {
		// The live table holds the rules of recently started flows;
		// replay the first 8192 flows' compiled rules and packets.
		keys := replayKeys(st, 4*8192)
		var rules []flowtable.Rule
		seen := map[packet.FlowKey]bool{}
		for _, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			rs, _ := r.app.CompileRules(flowtable.Port(0), k, true)
			rules = append(rules, rs...)
		}
		return rules, keys
	}
	return r, nil
}

// anomalyGraph is examples/anomaly's graph: firewall -> sampler ->
// (ddos || ids) -> out, scrubber on IDS's non-default edge.
func anomalyGraph() (*graph.Graph, error) {
	g := graph.New("anomaly")
	for _, v := range []graph.Vertex{
		{Service: svcFirewall, Name: "firewall", ReadOnly: true},
		{Service: svcSampler, Name: "sampler", ReadOnly: true},
		{Service: svcDDoS, Name: "ddos", ReadOnly: true},
		{Service: svcIDS, Name: "ids", ReadOnly: true},
		{Service: svcScrubber, Name: "scrubber", ReadOnly: true},
	} {
		if err := g.AddVertex(v); err != nil {
			return nil, err
		}
	}
	for _, e := range []struct {
		from, to flowtable.ServiceID
		def      bool
	}{
		{graph.Source, svcFirewall, true},
		{svcFirewall, svcSampler, true},
		{svcSampler, svcDDoS, true},
		{svcDDoS, svcIDS, true},
		{svcIDS, graph.Sink, true},
		{svcIDS, svcScrubber, false},
		{svcScrubber, graph.Sink, true},
	} {
		if err := g.AddEdge(e.from, e.to, e.def); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// visitRecorder marks every frame the scrubber receives in the current
// trial, so the run can check that flagged flows are diverted.
type visitRecorder struct {
	inner nf.BatchFunction
	sink  *sink
}

func (v *visitRecorder) Name() string               { return v.inner.Name() }
func (v *visitRecorder) ReadOnly() bool             { return v.inner.ReadOnly() }
func (v *visitRecorder) Init(ctx *nf.Context) error { return nf.InitNF(v.inner, ctx) }
func (v *visitRecorder) Close() error               { return nf.CloseNF(v.inner) }
func (v *visitRecorder) ProcessBatch(ctx *nf.Context, batch []nf.Packet, out []nf.Decision) {
	tr := v.sink.cur.Load()
	for i := range batch {
		if seq, ok := seqOf(batch[i].View.Payload()); ok {
			if j, in := tr.index(seq); in {
				bitSet(tr.visits, j)
			}
		}
	}
	v.inner.ProcessBatch(ctx, batch, out)
}

func setupAppaware(seed int64, t *tracer) (*rig, error) {
	st := newAppStream(seed)
	r := &rig{st: st, sink: &sink{st: st}, t: t, scrubbing: true,
		parallel: []flowtable.ServiceID{svcDDoS, svcIDS}}
	g, err := anomalyGraph()
	if err != nil {
		return nil, err
	}
	sb, err := r.withController(app.Config{IngressPort: 0, EgressPort: 1, WildcardRules: true}, g)
	if err != nil {
		r.close()
		return nil, err
	}
	cfg := hostConfig()
	cfg.Control = sb
	h := dataplane.NewHost(cfg)
	start := time.Now()
	ids := &nfs.IDS{Matcher: nfs.DefaultIDSSignatures(), Scrubber: svcScrubber}
	scrub := &nfs.Scrubber{Malicious: func(p *nf.Packet) bool {
		return ids.Matcher.Contains(p.View.Payload())
	}}
	for _, n := range []struct {
		svc  flowtable.ServiceID
		name string
		fn   nf.BatchFunction
		prio uint16
	}{
		{svcFirewall, "firewall", &nfs.Firewall{DefaultAllow: true}, 0},
		{svcSampler, "sampler", &nfs.Sampler{Rate: 1}, 0},
		{svcDDoS, "ddos", &nfs.DDoSDetector{ThresholdBps: 3.2e9, WindowSec: 1,
			Now: func() float64 { return time.Since(start).Seconds() }}, 0},
		{svcIDS, "ids", ids, 1}, // IDS outranks DDoS in the join
		{svcScrubber, "scrubber", &visitRecorder{inner: scrub, sink: r.sink}, 0},
	} {
		if _, err := h.AddNF(n.svc, wrapNF(t, n.name, n.fn), n.prio); err != nil {
			r.close()
			return nil, fmt.Errorf("add %s: %w", n.name, err)
		}
	}
	// Pre-populate: the controller compiles the graph's wildcard rules
	// once, before traffic, as in the paper's proactive mode.
	f0, _ := st.flowOf(0)
	rules, err := r.ctl.Resolve(context.Background(), flowtable.Port(0), st.key(f0))
	if err != nil {
		r.close()
		return nil, err
	}
	if _, err := h.Table().AddBatch(rules); err != nil {
		r.close()
		return nil, err
	}
	h.BindPort(1, wrapSink(t, "sink", r.sink.egress))
	h.BindIngress(0)
	if err := r.startHost(h); err != nil {
		r.close()
		return nil, err
	}
	r.in = wrapIngress(t, "ingress", hostPort{h: h, port: 0})
	r.replay = func() ([]flowtable.Rule, []packet.FlowKey) {
		return rules, replayKeys(st, 1<<18)
	}
	return r, nil
}

func setupWireUDP(seed int64, t *tracer) (*rig, error) {
	st := newZipfStream(seed, 4096, 1.1, 64)
	r := &rig{st: st, sink: &sink{st: st}, t: t}
	// Host A: firewall -> counter -> port 1 (UDP toward B).
	ga, err := graph.Chain("a",
		graph.Vertex{Service: svcFirewall, Name: "firewall", ReadOnly: false},
		graph.Vertex{Service: svcCounter, Name: "counter", ReadOnly: false})
	if err != nil {
		return nil, err
	}
	ha := dataplane.NewHost(hostConfig())
	for _, n := range []struct {
		svc  flowtable.ServiceID
		name string
		fn   nf.BatchFunction
	}{{svcFirewall, "firewall", &nfs.Firewall{DefaultAllow: true}}, {svcCounter, "counter", &nfs.Counter{}}} {
		if _, err := ha.AddNF(n.svc, wrapNF(t, n.name, n.fn), 0); err != nil {
			return nil, err
		}
	}
	if err := ha.InstallGraph(ga, 0, 1); err != nil {
		return nil, err
	}
	// Host B: noop -> port 1 (the sink).
	gb, err := graph.Chain("b", graph.Vertex{Service: svcNoop, Name: "noop", ReadOnly: false})
	if err != nil {
		return nil, err
	}
	hb := dataplane.NewHost(hostConfig())
	if _, err := hb.AddNF(svcNoop, wrapNF(t, "noop", nfs.NoOp{}), 0); err != nil {
		return nil, err
	}
	if err := hb.InstallGraph(gb, 0, 1); err != nil {
		return nil, err
	}
	hb.BindPort(1, wrapSink(t, "sink", r.sink.egress))
	if err := r.startHost(hb); err != nil {
		return nil, err
	}
	if err := r.startHost(ha); err != nil {
		r.close()
		return nil, err
	}
	// The wire's queues are sized like the hosts' rings: A's egress queue
	// and B's socket buffer (4 MiB, the usual rmem_max) absorb a stalled
	// writer or reader, so loss marks the one-syscall-per-frame path's
	// capacity rather than a scheduling hiccup.
	r.recv = portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0", ReadBuffer: 4 << 20})
	hb.BindIngress(0)
	if err := r.recv.Open(wrapIngress(t, "portio.ingress", hostPort{h: hb, port: 0})); err != nil {
		r.close()
		return nil, err
	}
	r.closers = append(r.closers, func() { r.recv.Close() })
	hb.RegisterPortStats(0, r.recv.Name(), r.recv.Stats)
	r.send = portio.NewUDP(portio.UDPConfig{
		Listen: "127.0.0.1:0", Peer: r.recv.LocalAddr().String(), QueueDepth: 8192,
	})
	bind, err := portio.Bind(ha, 1, r.send)
	if err != nil {
		r.close()
		return nil, err
	}
	r.closers = append(r.closers, func() { bind.Close() })
	if t != nil {
		ha.BindPort(1, wrapSink(t, "portio.sink", r.send.Sink()))
	}
	ha.BindIngress(0)
	r.in = wrapIngress(t, "ingress", hostPort{h: ha, port: 0})
	r.replay = func() ([]flowtable.Rule, []packet.FlowKey) {
		rules, _ := ga.Rules(0, 1)
		return rules, replayKeys(st, 1<<18)
	}
	return r, nil
}
