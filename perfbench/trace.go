package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"sdnfv/internal/control"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
	"sdnfv/internal/portio"
)

// The tracer records in-memory spans around the calls the benchmark
// makes into each layer — no span is recorded inside the program. Each
// wrapper forwards to the real implementation; while tracing is off a
// wrapper costs one atomic load.

// span is one call: name (its recorder), interval, causing span, and the
// first packet seq (or flow-key hash) it carried plus how many items.
type span struct {
	ID, Parent uint32
	Start, End int64
	Seq        uint64
	N          uint32
}

const (
	maxSpansPerStage = 100_000
	maxDursPerStage  = 200_000
)

// recorder aggregates one stage's spans online, so capping the stored
// spans never biases a metric.
type recorder struct {
	name string
	// frameStage marks stages a frame waits through on its way to the
	// sink; they make up the per-frame budget.
	frameStage bool

	mu     sync.Mutex
	spans  []span
	calls  int64
	items  int64
	durNs  int64 // Σ duration
	itemNs int64 // Σ duration × items: frame-ns spent waiting here
	durs   []int64
	errs   int64
}

func (r *recorder) add(s span, errs int) {
	d := s.End - s.Start
	r.mu.Lock()
	if len(r.spans) < maxSpansPerStage {
		r.spans = append(r.spans, s)
	}
	if len(r.durs) < maxDursPerStage {
		r.durs = append(r.durs, d)
	}
	r.calls++
	r.items += int64(s.N)
	r.durNs += d
	r.itemNs += d * int64(s.N)
	r.errs += int64(errs)
	r.mu.Unlock()
}

type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint32
	sink   *sink

	mu      sync.Mutex
	recs    map[string]*recorder
	order   []string
	childNs map[uint32]int64 // Σ child-span time per parent span
}

func newTracer(s *sink) *tracer {
	return &tracer{sink: s, recs: map[string]*recorder{}, childNs: map[uint32]int64{}}
}

func (t *tracer) rec(name string, frameStage bool) *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.recs[name]
	if !ok {
		r = &recorder{name: name, frameStage: frameStage}
		t.recs[name] = r
		t.order = append(t.order, name)
	}
	return r
}

// get returns the named recorder or an empty one.
func (t *tracer) get(name string) *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.recs[name]; ok {
		return r
	}
	return &recorder{name: name}
}

func (t *tracer) id() uint32 { return t.nextID.Add(1) }

func (t *tracer) addChild(parent uint32, d int64) {
	if parent == 0 {
		return
	}
	t.mu.Lock()
	t.childNs[parent] += d
	t.mu.Unlock()
}

func (t *tracer) takeChild(id uint32) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.childNs[id]
	delete(t.childNs, id)
	return d
}

// writeSpans dumps every stored span as CSV.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "stage,id,parent,start_ns,end_ns,seq,n")
	t.mu.Lock()
	names := append([]string(nil), t.order...)
	t.mu.Unlock()
	for _, name := range names {
		r := t.get(name)
		r.mu.Lock()
		for _, s := range r.spans {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n", name, s.ID, s.Parent, s.Start, s.End, s.Seq, s.N)
		}
		r.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanCtxKey struct{}

func parentOf(ctx context.Context) uint32 {
	id, _ := ctx.Value(spanCtxKey{}).(uint32)
	return id
}

// tracedNF wraps an NF's ProcessBatch and forwards its lifecycle hooks.
type tracedNF struct {
	inner nf.BatchFunction
	r     *recorder
	t     *tracer
}

func (w *tracedNF) Name() string   { return w.inner.Name() }
func (w *tracedNF) ReadOnly() bool { return w.inner.ReadOnly() }
func (w *tracedNF) Init(ctx *nf.Context) error {
	return nf.InitNF(w.inner, ctx)
}
func (w *tracedNF) Close() error { return nf.CloseNF(w.inner) }

func (w *tracedNF) ProcessBatch(ctx *nf.Context, batch []nf.Packet, out []nf.Decision) {
	if !w.t.on.Load() {
		w.inner.ProcessBatch(ctx, batch, out)
		return
	}
	start := nowNs()
	w.inner.ProcessBatch(ctx, batch, out)
	end := nowNs()
	var first uint64
	tr := w.t.sink.cur.Load()
	for i := range batch {
		seq, ok := seqOf(batch[i].View.Payload())
		if !ok {
			continue
		}
		if i == 0 {
			first = seq
		}
		if j, in := tr.index(seq); in && tr.nfNs != nil {
			tr.nfNs[j].Add(uint32(end - start))
		}
	}
	w.r.add(span{ID: w.t.id(), Start: start, End: end, Seq: first, N: uint32(len(batch))}, 0)
}

// tracedSink wraps an egress PortSink.
func tracedSink(t *tracer, r *recorder, inner dataplane.PortSink) dataplane.PortSink {
	return func(port int, data []byte, d *dataplane.Desc) {
		if !t.on.Load() {
			inner(port, data, d)
			return
		}
		start := nowNs()
		inner(port, data, d)
		end := nowNs()
		var seq uint64
		if v, err := packet.Parse(data); err == nil {
			seq, _ = seqOf(v.Payload())
			if tr := t.sink.cur.Load(); tr != nil && tr.sinkNs != nil {
				if j, in := tr.index(seq); in {
					tr.sinkNs[j].Add(uint32(end - start))
				}
			}
		}
		r.add(span{ID: t.id(), Start: start, End: end, Seq: seq, N: 1}, 0)
	}
}

// hostPort is the driver-facing ingress of one host port.
type hostPort struct {
	h    *dataplane.Host
	port int
}

func (p hostPort) Ingest(frame []byte) error { return p.h.Ingest(p.port, frame) }
func (p hostPort) IngestBurst(fs [][]byte) (int, int) {
	return p.h.IngestBurst(p.port, fs)
}
func (p hostPort) FrameCap() int { return p.h.FrameCap() }

var _ portio.Ingress = hostPort{}

// tracedIngress wraps the driver-facing ingress (the generator's, or a
// port driver's RX pump).
type tracedIngress struct {
	inner portio.Ingress
	r     *recorder
	t     *tracer
}

func (w tracedIngress) Ingest(frame []byte) error { return w.inner.Ingest(frame) }
func (w tracedIngress) FrameCap() int             { return w.inner.FrameCap() }
func (w tracedIngress) IngestBurst(fs [][]byte) (int, int) {
	if !w.t.on.Load() {
		return w.inner.IngestBurst(fs)
	}
	start := nowNs()
	adm, cons := w.inner.IngestBurst(fs)
	end := nowNs()
	var seq uint64
	if len(fs) > 0 {
		if v, err := packet.Parse(fs[0]); err == nil {
			seq, _ = seqOf(v.Payload())
		}
	}
	w.r.add(span{ID: w.t.id(), Start: start, End: end, Seq: seq, N: uint32(len(fs))}, len(fs)-cons)
	return adm, cons
}

// tracedSouthbound wraps the host's control.Southbound endpoint.
type tracedSouthbound struct {
	inner control.Southbound
	t     *tracer
	// rResolve spans cover a whole ResolveBatch; rWait holds, per batch,
	// the part not spent compiling (controller queueing and handoff).
	rResolve, rWait, rMsg, rRemoved *recorder
}

func newTracedSouthbound(t *tracer, inner control.Southbound) *tracedSouthbound {
	return &tracedSouthbound{
		inner: inner, t: t,
		rResolve: t.rec("control.resolve", true),
		rWait:    t.rec("controller.queue_wait", false),
		rMsg:     t.rec("control.nf_message", false),
		rRemoved: t.rec("control.flow_removed", false),
	}
}

func (w *tracedSouthbound) Resolve(ctx context.Context, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
	return w.inner.Resolve(ctx, scope, key)
}

func (w *tracedSouthbound) ResolveBatch(ctx context.Context, reqs []control.ResolveRequest, out []control.ResolveResult) {
	if !w.t.on.Load() {
		w.inner.ResolveBatch(ctx, reqs, out)
		return
	}
	id := w.t.id()
	start := nowNs()
	w.inner.ResolveBatch(context.WithValue(ctx, spanCtxKey{}, id), reqs, out)
	end := nowNs()
	errs := 0
	for i := range reqs {
		if out[i].Err != nil {
			errs++
		}
	}
	var key uint64
	if len(reqs) > 0 {
		key = reqs[0].Key.Hash()
	}
	w.rResolve.add(span{ID: id, Start: start, End: end, Seq: key, N: uint32(len(reqs))}, errs)
	compile := w.t.takeChild(id)
	w.rWait.add(span{ID: w.t.id(), Parent: id, Start: start, End: end - compile, Seq: key, N: uint32(len(reqs))}, 0)
}

func (w *tracedSouthbound) SendNFMessage(ctx context.Context, src flowtable.ServiceID, m control.Message) error {
	if !w.t.on.Load() {
		return w.inner.SendNFMessage(ctx, src, m)
	}
	start := nowNs()
	err := w.inner.SendNFMessage(ctx, src, m)
	e := 0
	if err != nil {
		e = 1
	}
	w.rMsg.add(span{ID: w.t.id(), Start: start, End: nowNs(), N: 1}, e)
	return err
}

func (w *tracedSouthbound) NotifyFlowRemoved(ctx context.Context, removals []control.FlowRemoved) error {
	if !w.t.on.Load() {
		return w.inner.NotifyFlowRemoved(ctx, removals)
	}
	start := nowNs()
	err := w.inner.NotifyFlowRemoved(ctx, removals)
	w.rRemoved.add(span{ID: w.t.id(), Start: start, End: nowNs(), N: uint32(len(removals))}, 0)
	return err
}

func (w *tracedSouthbound) Stats(ctx context.Context) (control.Stats, error) {
	return w.inner.Stats(ctx)
}

func (w *tracedSouthbound) Features(ctx context.Context) (control.Features, error) {
	return w.inner.Features(ctx)
}

// tracedNorthbound wraps the application tier the controller calls.
type tracedNorthbound struct {
	inner        control.Northbound
	t            *tracer
	rCompile     *recorder
	rMsg         *recorder
	ruleFlows    atomic.Int64
	rulesCompile atomic.Int64
}

func newTracedNorthbound(t *tracer, inner control.Northbound) *tracedNorthbound {
	return &tracedNorthbound{
		inner: inner, t: t,
		rCompile: t.rec("app.compile", false),
		rMsg:     t.rec("app.nf_message", false),
	}
}

func (w *tracedNorthbound) CompileFlow(ctx context.Context, dp control.DatapathID, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
	if !w.t.on.Load() {
		return w.inner.CompileFlow(ctx, dp, scope, key)
	}
	start := nowNs()
	rules, err := w.inner.CompileFlow(ctx, dp, scope, key)
	end := nowNs()
	parent := parentOf(ctx)
	w.t.addChild(parent, end-start)
	e := 0
	if err != nil {
		e = 1
	} else {
		w.ruleFlows.Add(1)
		w.rulesCompile.Add(int64(len(rules)))
	}
	w.rCompile.add(span{ID: w.t.id(), Parent: parent, Start: start, End: end, Seq: key.Hash(), N: 1}, e)
	return rules, err
}

func (w *tracedNorthbound) HandleNFMessage(ctx context.Context, dp control.DatapathID, src flowtable.ServiceID, m control.Message) error {
	if !w.t.on.Load() {
		return w.inner.HandleNFMessage(ctx, dp, src, m)
	}
	start := nowNs()
	err := w.inner.HandleNFMessage(ctx, dp, src, m)
	e := 0
	if err != nil {
		e = 1
	}
	w.rMsg.add(span{ID: w.t.id(), Parent: parentOf(ctx), Start: start, End: nowNs(), N: 1}, e)
	return err
}

func (w *tracedNorthbound) HandleFlowRemoved(ctx context.Context, dp control.DatapathID, removals []control.FlowRemoved) error {
	return w.inner.HandleFlowRemoved(ctx, dp, removals)
}

func (w *tracedNorthbound) Policy(key string) (any, bool) { return w.inner.Policy(key) }

// durQuantileUs is the q-quantile of a recorder's call durations, in µs.
func (r *recorder) durQuantileUs(q float64) float64 {
	r.mu.Lock()
	xs := make([]float64, len(r.durs))
	for i, d := range r.durs {
		xs[i] = float64(d) / 1e3
	}
	r.mu.Unlock()
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return quantile(xs, q)
}

func (r *recorder) snapshot() (calls, items, durNs, itemNs, errs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls, r.items, r.durNs, r.itemNs, r.errs
}
