package main

import (
	"fmt"
	"math"
	"time"

	"sdnfv/internal/dataplane"
)

// trialResult is what one trial measured and what it broke.
type trialResult struct {
	RateKpps      float64 `json:"rate_kpps"`
	Seconds       float64 `json:"seconds"`
	Offered       int     `json:"offered"`
	Refused       int     `json:"refused"`
	Delivered     int     `json:"delivered"`
	Intended      int     `json:"intended_drops"`
	Lost          int     `json:"lost"` // offered - delivered - intended (refused included)
	DeliveredKpps float64 `json:"delivered_kpps"`
	P50Us         float64 `json:"p50_us"`
	P10Us         float64 `json:"p10_us"`
	P99Us         float64 `json:"p99_us"`
	FirstN        int     `json:"first_n"`
	FirstP50Us    float64 `json:"first_p50_us"`
	FirstP10Us    float64 `json:"first_p10_us"`
	FirstP99Us    float64 `json:"first_p99_us"`
	// LimitP99Us is the ladder's judged percentile: p99 (or first-packet
	// p99) with lost frames counted as infinitely late.
	LimitP99Us float64  `json:"limit_p99_us"`
	BacklogEnd int      `json:"backlog_end"`
	LateP99Us  float64  `json:"gen_late_p99_us"`
	Errors     []string `json:"errors,omitempty"`

	lat      []uint32 // delivered latencies, ascending (ns)
	firstLat []uint32 // the same for first packets
	// Traced trials only: per-frame residence (µs), Σ latency and Σ
	// generator lateness over delivered frames (ns).
	residence   []float64
	latSumNs    float64
	lateFrameNs float64
}

func (r trialResult) lossRatio() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Lost) / float64(r.Offered)
}

// pass applies the ladder criteria.
func (r trialResult) pass(l limits) bool {
	backlogCap := int(r.RateKpps*l.p99LimitUs/1e3) + 2*burstLen
	return len(r.Errors) == 0 && r.LimitP99Us <= l.p99LimitUs &&
		r.lossRatio() <= l.lossLimit && r.BacklogEnd <= backlogCap
}

// runTrial offers rate kpps for dur and evaluates the outcome once every
// host is idle again.
func (b *bench) runTrial(rateKpps float64, dur time.Duration) trialResult {
	n := int(rateKpps * 1e3 * dur.Seconds())
	if n < 4*burstLen {
		n = 4 * burstLen
	}
	tr := newTrial(0, n, rateKpps, b.r.t != nil)
	// The generator fixes base and t0; publish the trial to the sink
	// first with the base it will use.
	tr.base = b.gen.seq
	b.r.sink.cur.Store(tr)
	gr := b.gen.run(tr)
	backlog := b.backlog()
	errs := b.drain(tr)
	res := b.evaluate(tr, gr, rateKpps)
	res.BacklogEnd = backlog
	res.Errors = append(res.Errors, errs...)
	res.Errors = append(res.Errors, b.checkIdentities()...)
	res.Errors = append(res.Errors, b.checkWorkload(tr)...)
	return res
}

// backlog counts the frames still queued when offering ends: in the
// hosts' pools and, on the wire, in A's egress queue and B's socket.
func (b *bench) backlog() int {
	n := 0
	for _, h := range b.r.hosts {
		n += h.Pool().Stats().InUse
	}
	if b.r.send != nil {
		// Handed to A's driver, neither dropped nor yet read by B. Read
		// in this order the difference cannot go negative.
		sa, sr := b.r.send.Stats(), b.r.recv.Stats()
		n += int(b.r.hosts[1].Stats().TxPackets - sa.TxDrops - sr.RxFrames)
	}
	return n
}

// drain waits until every host is idle and the sink has stopped
// receiving, so a trial's frames never leak into the next one.
func (b *bench) drain(tr *trial) []string {
	deadline := time.Now().Add(10 * time.Second)
	for _, h := range b.r.hosts {
		if !h.WaitIdle(time.Until(deadline)) {
			return []string{"host did not drain within 10s"}
		}
	}
	if b.r.send != nil {
		// Frames may sit in A's egress queue or B's socket; wait until
		// the sink count stops moving and every host is idle again.
		last, since := tr.delivered.Load(), time.Now()
		for time.Since(since) < 30*time.Millisecond && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
			if cur := tr.delivered.Load(); cur != last {
				last, since = cur, time.Now()
			}
		}
		for _, h := range b.r.hosts {
			h.WaitIdle(time.Until(deadline))
		}
	}
	return nil
}

func (b *bench) evaluate(tr *trial, gr genResult, rateKpps float64) trialResult {
	res := trialResult{
		RateKpps: rateKpps,
		Offered:  gr.offered,
		Refused:  gr.refused,
		Seconds:  float64(tr.due(tr.n/burstLen)-tr.t0) / 1e9,
	}
	var first []uint32
	res.lat = make([]uint32, 0, tr.n)
	for i := 0; i < tr.n; i++ {
		if !bitGet(tr.seen, i) {
			if b.r.scrubbing && bitGet(tr.visits, i) && b.r.st.exploit(tr.base+uint64(i)) {
				res.Intended++
			}
			continue
		}
		res.lat = append(res.lat, tr.lat[i])
		if tr.nfNs != nil {
			own := int64(tr.nfNs[i].Load()) + int64(tr.sinkNs[i].Load())
			res.residence = append(res.residence, float64(int64(tr.lat[i])-own)/1e3)
			res.latSumNs += float64(tr.lat[i])
			res.lateFrameNs += float64(tr.late[i/burstLen])
		}
		if bitGet(tr.first, i) {
			first = append(first, tr.lat[i])
		}
	}
	res.Delivered = len(res.lat)
	res.Lost = res.Offered - res.Delivered - res.Intended
	res.DeliveredKpps = float64(res.Delivered) / res.Seconds / 1e3
	sortU32(res.lat)
	sortU32(first)
	res.P50Us = rankUs(res.lat, 0, 0.5)
	res.P10Us = rankUs(res.lat, 0, 0.10)
	res.P99Us = rankUs(res.lat, 0, 0.99)
	res.FirstN = len(first)
	res.firstLat = first
	res.FirstP50Us = rankUs(first, 0, 0.5)
	res.FirstP10Us = rankUs(first, 0, 0.10)
	res.FirstP99Us = rankUs(first, 0, 0.99)
	if b.lim.firstPkt {
		// Lost first packets are the flows whose setup failed.
		res.LimitP99Us = rankUs(first, max(gr.firstOffered-len(first), 0), 0.99)
	} else {
		res.LimitP99Us = rankUs(res.lat, res.Lost, 0.99)
	}
	lates := make([]uint32, len(tr.late))
	for i, l := range tr.late {
		if l > math.MaxUint32 {
			l = math.MaxUint32
		}
		lates[i] = uint32(l)
	}
	sortU32(lates)
	res.LateP99Us = rankUs(lates, 0, 0.99)
	if d := tr.dups.Load(); d > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("%d duplicate frames", d))
	}
	if c := tr.corrupt.Load(); c > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("%d corrupted or misrouted frames", c))
	}
	if s := b.r.sink.stray.Swap(0); s > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("%d frames outside their trial", s))
	}
	return res
}

// checkIdentities verifies the engine's conservation identities on every
// host (idle at this point).
func (b *bench) checkIdentities() []string {
	var errs []string
	par := b.parallelOverflows()
	for i, h := range b.r.hosts {
		st := h.Stats()
		out := st.TxPackets + st.Drops + st.Overflows + st.TxDrops + st.RxDrops
		// The identity is exact unless a parallel fan-out member was
		// refused: such an offer counts in Overflows while its packet
		// continues through the join, so the sum may then exceed rx
		// (documented on dataplane.HostStats.Drops).
		if (par == 0 && st.RxPackets != out) || st.RxPackets > out {
			errs = append(errs, fmt.Sprintf("host %d: rx %d != tx %d + drops %d + overflows %d + txdrops %d + rxdrops %d = %d (parallel member overflows %d, misses %d, release errors %d)",
				i, st.RxPackets, st.TxPackets, st.Drops, st.Overflows, st.TxDrops, st.RxDrops, out, par, st.Misses, st.ReleaseErrs))
		}
		if err := tableIdentity(h); err != "" {
			errs = append(errs, fmt.Sprintf("host %d: %s", i, err))
		}
	}
	return errs
}

// tableIdentity checks Adds == Rules + Deleted + Evicted at rest. A
// sweep publishes the shrunk shards before it adds to the eviction
// counters, so a snapshot taken mid-sweep can read a few rules short;
// the check waits until two snapshots a sweep apart agree (idle rules
// keep expiring until then).
func tableIdentity(h *dataplane.Host) string {
	t := h.Table()
	deadline := time.Now().Add(3 * time.Second)
	a := t.Stats()
	for {
		time.Sleep(25 * time.Millisecond)
		b := t.Stats()
		settled := a.Adds == b.Adds && a.Rules == b.Rules && a.Evicted() == b.Evicted() &&
			a.Deleted == b.Deleted && (b.Sweeps > a.Sweeps || b.Sweeps == 0)
		if settled || time.Now().After(deadline) {
			if b.Adds != uint64(b.Rules)+b.Deleted+b.Evicted() {
				return fmt.Sprintf("flowtable adds %d != rules %d + deleted %d + evicted %d",
					b.Adds, b.Rules, b.Deleted, b.Evicted())
			}
			return ""
		}
		a = b
	}
}

// checkWorkload applies the per-workload correctness rules to a drained
// trial.
func (b *bench) checkWorkload(tr *trial) []string {
	var errs []string
	if b.w.name == "fastpath" {
		if m := b.r.hosts[0].Stats().Misses; m != 0 {
			errs = append(errs, fmt.Sprintf("fastpath: %d flow-table misses with every flow pre-installed", m))
		}
	}
	if b.r.scrubbing {
		errs = append(errs, b.checkScrubbing(tr, b.parallelOverflows() > b.parOvf)...)
		b.parOvf = b.parallelOverflows()
	}
	if b.r.send != nil {
		errs = append(errs, b.checkWire()...)
	}
	return errs
}

// parallelOverflows sums the refused offers to parallel fan-out members.
func (b *bench) parallelOverflows() uint64 {
	var n uint64
	for _, h := range b.r.hosts {
		for _, svc := range b.r.parallel {
			for _, rs := range h.ReplicaStats(svc) {
				n += rs.OverflowDrops
			}
		}
	}
	return n
}

// checkScrubbing: exactly the exploit frames are dropped, and once a
// flow's exploit reached the scrubber every later frame of it visits
// the scrubber too. Frames of flows flagged in earlier trials are
// judged from flow state: such a flow has no exploit in this trial but
// must still be diverted. "Later" is seq order, which is the order the
// IDS sees a flow's frames unless a refused parallel offer re-forwarded
// one (reordered): in such a trial only the leak check applies.
func (b *bench) checkScrubbing(tr *trial, reordered bool) []string {
	st := b.r.st.(*appStream)
	var errs []string
	leaked, undiverted, wrongly := 0, 0, 0
	for i := 0; i < tr.n; i++ {
		seq := tr.base + uint64(i)
		flow, pkt := st.flowOf(seq)
		bad, at := st.flagged(flow)
		seen, visited := bitGet(tr.seen, i), bitGet(tr.visits, i)
		switch {
		case bad && pkt == at:
			if seen {
				leaked++
			}
			if visited {
				b.diverted[seq] = true
			}
		case bad && pkt > at:
			// The exploit is the flow's packet `at`; it was sent
			// appFlows*(pkt-at) frames earlier.
			back := uint64(appFlows) * uint64(pkt-at)
			if seen && !visited && b.exploitDiverted(tr, seq-back) {
				undiverted++
			}
		default:
			if visited {
				wrongly++
			}
		}
	}
	if leaked > 0 {
		errs = append(errs, fmt.Sprintf("appaware: %d exploit frames reached the egress", leaked))
	}
	if reordered {
		undiverted, wrongly = 0, 0
	}
	if undiverted > 0 {
		errs = append(errs, fmt.Sprintf("appaware: %d frames of flagged flows skipped the scrubber", undiverted))
	}
	if wrongly > 0 {
		errs = append(errs, fmt.Sprintf("appaware: %d frames of clean flows (or before the exploit) visited the scrubber", wrongly))
	}
	return errs
}

// exploitDiverted reports whether the exploit frame seq reached the
// scrubber: in this trial from its visit bit, in an earlier one from
// the record kept when that trial was checked.
func (b *bench) exploitDiverted(tr *trial, seq uint64) bool {
	if j, in := tr.index(seq); in {
		return bitGet(tr.visits, j)
	}
	return b.diverted[seq]
}

// checkWire verifies the cross-host identity of wire_udp: what host A
// transmitted is what A's driver wrote or dropped, and what the wire
// delivered to B's driver is accounted by B.
func (b *bench) checkWire() []string {
	var errs []string
	ha, hb := b.r.hosts[1], b.r.hosts[0]
	deadline := time.Now().Add(5 * time.Second)
	var sa, sr dataplane.DriverStats
	for {
		sa, sr = b.r.send.Stats(), b.r.recv.Stats()
		if sa.TxFrames+sa.TxDrops == ha.Stats().TxPackets || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ta := ha.Stats().TxPackets
	if sa.TxFrames+sa.TxDrops != ta {
		errs = append(errs, fmt.Sprintf("wire: host A tx %d != driver tx %d + txdrops %d", ta, sa.TxFrames, sa.TxDrops))
	}
	if sr.RxFrames > sa.TxFrames {
		errs = append(errs, fmt.Sprintf("wire: B read %d frames, A wrote only %d", sr.RxFrames, sa.TxFrames))
	}
	sb := hb.Stats()
	// RxRefused covers boundary refusals (also in B's RxDrops) and
	// frames the driver gave up re-offering (in no host counter).
	if sr.RxFrames != sb.RxPackets+sr.RxRefused-sb.RxDrops {
		errs = append(errs, fmt.Sprintf("wire: B driver rx %d != host rx %d + refused %d - rxdrops %d",
			sr.RxFrames, sb.RxPackets, sr.RxRefused, sb.RxDrops))
	}
	return errs
}
