package main

import (
	"syscall"
)

// ingress is the admission call the generator offers bursts through:
// dataplane.Host.IngestBurst on a fixed port, possibly traced.
type ingress interface {
	IngestBurst(frames [][]byte) (admitted, consumed int)
}

// generator is the open-loop traffic source: one goroutine offering
// bursts of burstLen frames on a fixed schedule, paced by sleeping. It
// never waits for the system — a refused burst tail is counted, not
// retried — so a slow system faces the same offered load as a fast one.
type generator struct {
	st   stream
	in   ingress
	seq  uint64 // next seq to assign
	bufs [burstLen][]byte
	out  [][]byte
	// lead is the pacer's running estimate of how far a sleep overshoots;
	// it wakes that much ahead of a due time and offers every burst due
	// within it.
	lead float64
	// firstSeen numbers the first packet of each flow in a trial 0 for
	// streams without intrinsic packet indices.
	firstSeen map[uint32]struct{}
}

func newGenerator(st stream, in ingress) *generator {
	g := &generator{st: st, in: in, out: make([][]byte, burstLen), lead: 50e3}
	for i := range g.bufs {
		g.bufs[i] = make([]byte, 0, 2048)
	}
	return g
}

// genResult is what the generator knows about a trial.
type genResult struct {
	offered, admitted, refused int
	firstOffered               int // frames with packet index 0
}

// run offers tr's n frames at its rate and returns when the last burst
// has been offered. tr.t0 is set here, a short way into the future.
func (g *generator) run(tr *trial) genResult {
	tr.base = g.seq
	g.seq += uint64(tr.n)
	g.firstSeen = map[uint32]struct{}{}
	var res genResult
	bursts := tr.n / burstLen
	tr.t0 = nowNs() + 200e3
	for k := 0; k < bursts; {
		now := nowNs()
		for k < bursts && tr.due(k) <= now+int64(g.lead) {
			g.offer(tr, k, &res)
			k++
			now = nowNs()
		}
		if k == bursts {
			break
		}
		wait := tr.due(k) - int64(g.lead) - now
		if wait <= 0 {
			continue
		}
		t := nowNs()
		ts := syscall.NsecToTimespec(wait)
		_ = syscall.Nanosleep(&ts, nil) // an EINTR only shortens the sleep
		over := float64(nowNs() - t - wait)
		if over < 0 {
			over = 0
		}
		if over > 500e3 {
			over = 500e3 // a descheduled sleep must not teach a huge lead
		}
		g.lead += (over - g.lead) / 16
	}
	return res
}

func (g *generator) offer(tr *trial, k int, res *genResult) {
	base := tr.base + uint64(k*burstLen)
	for i := 0; i < burstLen; i++ {
		seq := base + uint64(i)
		flow, pkt := g.st.flowOf(seq)
		if pkt == pktUnknown {
			pkt = 1
			if _, ok := g.firstSeen[flow]; !ok {
				g.firstSeen[flow] = struct{}{}
				pkt = 0
			}
		}
		if pkt == 0 {
			res.firstOffered++
		}
		g.out[i] = g.st.build(g.bufs[i], seq, flow, pkt)
	}
	sent := nowNs()
	tr.sent[k] = sent
	if late := sent - tr.due(k); late > 0 {
		tr.late[k] = late
	}
	adm, cons := g.in.IngestBurst(g.out)
	res.offered += burstLen
	res.admitted += adm
	res.refused += burstLen - cons
}
