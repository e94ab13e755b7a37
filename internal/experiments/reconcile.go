package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sdnfv/internal/acmatch"
	"sdnfv/internal/app"
	"sdnfv/internal/autoscale"
	"sdnfv/internal/cluster"
	"sdnfv/internal/controller"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/reconcile"
	"sdnfv/internal/spec"
	"sdnfv/internal/telemetry"
	"sdnfv/internal/traffic"
)

// reconcileSpecJSON is the declarative desired state driving the whole
// experiment — it enters the stack through telemetry's POST /apply/spec
// action exactly as `sdnfv-ctl apply` would deliver it. The video
// service lists host-C first and host-A as fallback, which is the knob
// the chaos phase turns: killing host-C makes host-A the first live
// placement candidate and the reconciler must converge onto it.
const reconcileSpecJSON = `{
  "version": 1,
  "name": "chaos-chain",
  "hosts": [
    {"name": "host-A", "datapath": 1},
    {"name": "host-B", "datapath": 2},
    {"name": "host-C", "datapath": 3}
  ],
  "services": [
    {"name": "firewall", "id": 1, "nf": "firewall", "placement": ["host-A"]},
    {"name": "ids", "id": 2, "nf": "ids", "read_only": true, "placement": ["host-B", "host-A"]},
    {"name": "video", "id": 3, "nf": "video", "read_only": true, "placement": ["host-C", "host-A"], "scale": {"min": 1, "max": 2}}
  ],
  "edges": [
    {"from": "ingress", "to": "firewall", "default": true},
    {"from": "firewall", "to": "ids", "default": true},
    {"from": "ids", "to": "video", "default": true},
    {"from": "video", "to": "egress", "default": true}
  ],
  "ingress": {"host": "host-A", "port": 0},
  "egress_port": 1,
  "links": [
    {"a": {"host": "host-A", "port": 2}, "b": {"host": "host-B", "port": 2}},
    {"a": {"host": "host-B", "port": 3}, "b": {"host": "host-C", "port": 2}},
    {"a": {"host": "host-B", "port": 4}, "b": {"host": "host-A", "port": 3}}
  ]
}`

// ReconcileResult is the declarative-orchestration chaos experiment:
// a spec is POSTed to /apply/spec, the reconcile loop converges an
// empty three-host cluster onto it (boots through the orchestrator,
// incremental recompile, tracked rule install), traffic proves the
// chain, then host-C is killed mid-run and the loop must re-place the
// video hop on its fallback host, reroute the chain around the corpse,
// and resume its autoscaler there — with exact packet accounting on
// every surviving host afterwards.
type ReconcileResult struct {
	Generation  uint64
	Converged   bool
	Drift       int
	DriftEvents uint64
	ActionsOK   uint64
	ActionsFail uint64

	// Ticks to converge from an empty cluster / after the host kill.
	TicksFromScratch int
	TicksAfterKill   int
	// ConvergeSec is the reconciler's own measure of the kill episode.
	ConvergeSec float64

	// Placement after convergence (service -> host) and where the video
	// autoscaler runs after failover.
	Placement  map[string]string
	VideoScale string

	// Phase 1: chain A→B→C with the spec's preferred placement.
	Phase1Sent      uint64
	Phase1Delivered uint64
	// Phase 2: after host-C died, the same chain must exit at host-A.
	Phase2Sent      uint64
	Phase2Delivered uint64

	// Survivor accounting: rx == tx+drops+overflows+txdrops+rxdrops and
	// a leak-free pool on every host still alive.
	HostNames    []string
	Rx, Tx       []uint64
	Drops        []uint64
	AccountingOK bool
}

// Name implements Result.
func (*ReconcileResult) Name() string { return "reconcile" }

// Render implements Result.
func (r *ReconcileResult) Render() string {
	var b strings.Builder
	b.WriteString("Declarative reconcile: spec applied via /apply/spec, host-C killed mid-run\n\n")
	b.WriteString(fmt.Sprintf("generation %d: converged in %d ticks from empty cluster\n",
		r.Generation, r.TicksFromScratch))
	b.WriteString(fmt.Sprintf("placement: %v\n", r.Placement))
	b.WriteString(fmt.Sprintf("phase 1 (firewall@A -> ids@B -> video@C): sent %d, delivered %d\n",
		r.Phase1Sent, r.Phase1Delivered))
	b.WriteString(fmt.Sprintf("host-C killed: reconverged in %d ticks (%.3f s), drift events %d, video autoscaler now on %s\n",
		r.TicksAfterKill, r.ConvergeSec, r.DriftEvents, r.VideoScale))
	b.WriteString(fmt.Sprintf("phase 2 (video re-placed on host-A): sent %d, delivered %d\n",
		r.Phase2Sent, r.Phase2Delivered))
	rows := make([][]string, len(r.HostNames))
	for i, n := range r.HostNames {
		rows[i] = []string{n, f0(float64(r.Rx[i])), f0(float64(r.Tx[i])), f0(float64(r.Drops[i]))}
	}
	b.WriteString("\n" + table([]string{"survivor", "rx", "tx", "drops"}, rows))
	b.WriteString(fmt.Sprintf("\nreconcile status: converged=%v drift=%d actions ok=%d failed=%d\n",
		r.Converged, r.Drift, r.ActionsOK, r.ActionsFail))
	b.WriteString(fmt.Sprintf("survivor accounting: ok=%v\n", r.AccountingOK))
	return b.String()
}

// Reconcile runs the experiment (~1 s wall time).
func Reconcile(seed int64) *ReconcileResult {
	const (
		flows      = 32
		frameBytes = 512
		phase1N    = 4000
		phase2N    = 4000
	)
	res := &ReconcileResult{}

	// --- NF registry: how the spec's binding names resolve to code.
	sigs := acmatch.New([]string{"ATTACK-SIGNATURE"})
	nfReg := spec.NewNFRegistry()
	mustReg := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	mustReg(nfReg.Register("firewall", func() nf.BatchFunction { return &nfs.Firewall{DefaultAllow: true} }))
	mustReg(nfReg.Register("ids", func() nf.BatchFunction { return &nfs.IDS{Matcher: sigs, Scrubber: 3} }))
	mustReg(nfReg.Register("video", func() nf.BatchFunction { return &nfs.VideoDetector{PolicyEngine: 3, Bypass: 3} }))

	// --- Parse the spec (the same bytes later go through /apply/spec).
	sp, err := spec.Parse([]byte(reconcileSpecJSON))
	if err != nil {
		panic(err)
	}
	if err := sp.BindCheck(nfReg); err != nil {
		panic(err)
	}
	dps := reconcile.DatapathsOf(sp)

	// --- Controller, hosts, fabric wired from the spec's links.
	ctl := controller.New(controller.Config{Workers: 2})
	ctl.Start()
	defer ctl.Stop()
	fab := cluster.New()
	hosts := map[string]*dataplane.Host{}
	for _, name := range sp.HostNames() {
		h := dataplane.NewHost(dataplane.Config{
			PoolSize: 4096, RingSize: 1024, TXThreads: 1,
			Control: ctl.Session(dps[name]),
		})
		hosts[name] = h
		if err := fab.AddHost(dps[name], name, h); err != nil {
			panic(err)
		}
	}
	if err := reconcile.WireLinks(fab, sp, cluster.LinkConfig{}); err != nil {
		panic(err)
	}

	// --- Application over the spec graph; the fabric is its downstream.
	g, err := sp.Graph()
	if err != nil {
		panic(err)
	}
	a := app.New(app.Config{IngressPort: sp.Ingress.Port, EgressPort: sp.EgressPort, WildcardRules: true})
	if err := a.RegisterGraph(g); err != nil {
		panic(err)
	}
	a.SetDownstream(fab)
	ctl.SetNorthbound(a)

	// --- Orchestrator + reconciler: observation from the fabric,
	// actuation through orchestrator boots, incremental recompiles, and
	// tracked rule replacement.
	clock := autoscale.NewRealClock()
	orch := orchestrator.New(orchestrator.Config{BootDelaySec: 0.005, StandbyDelaySec: 0.005, Standby: 1}, clock)
	for name, h := range hosts {
		orch.AddHost(dataplane.NamedHost{Name: name, Host: h})
	}
	act := &reconcile.ClusterActuators{
		Fabric: fab, App: a, Orch: orch, NFs: nfReg, Clock: clock,
		// Long interval + high thresholds: the loops exist (bounds are
		// live, failover moves them) but stay quiet during the short run.
		Scale:     autoscale.Config{IntervalSec: 3600, UpBacklog: 1 << 30, CooldownSec: 3600},
		Datapaths: dps,
	}
	defer act.Close()
	rec := reconcile.New(
		reconcile.Config{IntervalSec: 0.02, BackoffSec: 0.05, PendingSec: 0.5, QueueDepth: 16},
		reconcile.ClusterObserver{Fabric: fab, Datapaths: dps}, act, clock)

	// --- Telemetry: the spec enters through the action surface, status
	// leaves through /state/reconcile — the operator's view.
	reg := telemetry.NewRegistry()
	telemetry.RegisterReconcile(reg, rec)
	if _, err := reg.Apply(context.Background(), telemetry.PathApplySpec, []byte(reconcileSpecJSON)); err != nil {
		panic(err)
	}

	// --- Egress sinks on both hosts that can terminate the chain.
	var deliveredA, deliveredC atomic.Uint64
	hosts["host-A"].BindPort(sp.EgressPort, func(_ int, _ []byte, _ *dataplane.Desc) { deliveredA.Add(1) })
	hosts["host-C"].BindPort(sp.EgressPort, func(_ int, _ []byte, _ *dataplane.Desc) { deliveredC.Add(1) })

	if err := fab.Start(); err != nil {
		panic(err)
	}
	defer fab.Stop()

	// --- Converge from an empty cluster. Ticks are driven manually so
	// the tick count is part of the result; the wall-clock sleeps let the
	// orchestrator's async boots land between observations.
	converge := func(max int) int {
		for i := 1; i <= max; i++ {
			rec.TickNow()
			if rec.Status().Converged {
				return i
			}
			time.Sleep(20 * time.Millisecond)
		}
		panic(fmt.Sprintf("reconcile: no convergence after %d ticks: %+v", max, rec.Status()))
	}
	res.TicksFromScratch = converge(100)

	// --- Phase 1 traffic through the spec's preferred placement.
	hosts["host-A"].BindIngress(sp.Ingress.Port)
	factory := traffic.NewFactory()
	inject := func(n int) uint64 {
		var sent uint64
		for i := 0; i < n; i++ {
			fs := traffic.Flow(int(seed)*flows+i%flows, frameBytes, 0)
			frame, err := factory.Frame(fs, time.Now().UnixNano())
			if err != nil {
				panic(err)
			}
			for errors.Is(hosts["host-A"].Ingest(sp.Ingress.Port, frame), dataplane.ErrIngestRefused) {
				time.Sleep(2 * time.Microsecond)
			}
			sent++
			if i%8 == 7 {
				time.Sleep(30 * time.Microsecond)
			}
		}
		return sent
	}
	res.Phase1Sent = inject(phase1N)
	if !fab.WaitIdle(20 * time.Second) {
		panic("reconcile: phase 1 never drained")
	}
	res.Phase1Delivered = deliveredC.Load()

	// --- Chaos: kill host-C mid-run. The reconciler must observe the
	// death as drift, boot a replacement video replica on host-A, move
	// the autoscaler with it, and reroute the chain B→A.
	if err := fab.KillHost(dps["host-C"]); err != nil {
		panic(err)
	}
	res.TicksAfterKill = converge(200)

	// --- Phase 2: same ingress, chain now exits at host-A.
	before := deliveredA.Load()
	res.Phase2Sent = inject(phase2N)
	if !fab.WaitIdle(20 * time.Second) {
		panic("reconcile: phase 2 never drained")
	}
	res.Phase2Delivered = deliveredA.Load() - before

	// --- Final status through the show surface, like sdnfv-ctl show.
	v, err := reg.Show(context.Background(), telemetry.PathReconcile)
	if err != nil {
		panic(err)
	}
	st := v.(reconcile.Status)
	res.Generation = st.Generation
	res.Converged = st.Converged
	res.Drift = len(st.Drift)
	res.DriftEvents = st.DriftEvents
	res.ActionsOK = st.ActionsOK
	res.ActionsFail = st.ActionsFailed
	res.ConvergeSec = st.LastConvergeSec
	res.Placement = st.Placement
	if _, host := act.Scaler("video"); host != "" {
		res.VideoScale = host
	}

	// --- Survivor accounting: the exact identity on every live host.
	res.AccountingOK = true
	for _, name := range sp.HostNames() {
		if !fab.Alive(dps[name]) {
			continue
		}
		st := hosts[name].Stats()
		res.HostNames = append(res.HostNames, name)
		res.Rx = append(res.Rx, st.RxPackets)
		res.Tx = append(res.Tx, st.TxPackets)
		res.Drops = append(res.Drops, st.Drops+st.Overflows+st.TxDrops+st.RxDrops)
		if st.RxPackets != st.TxPackets+st.Drops+st.Overflows+st.TxDrops+st.RxDrops ||
			st.Pool.InUse != 0 {
			res.AccountingOK = false
		}
	}
	return res
}

func init() {
	register("reconcile", func(seed int64) Result { return Reconcile(seed) })
}
