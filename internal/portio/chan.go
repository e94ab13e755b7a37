package portio

import (
	"errors"
	"sync/atomic"
	"time"

	"sdnfv/internal/dataplane"
)

// ChanDriver is the in-process transport: two cross-connected drivers
// form one bidirectional link inside a single process, replacing the
// ad-hoc closure wiring between co-located hosts with the same seam
// the socket drivers use.
//
// With depth 0 (NewChanPair(0)) egress delivers synchronously into the
// peer's ingress from the transmitting TX thread — exactly what an
// unshaped cluster fabric link does today, zero queues, the peer's
// pool copy the only copy — so swapping existing channel wiring for a
// ChanDriver changes no behavior. A positive depth routes egress
// through the shared egressQueue (buffered channel + writer
// goroutine), decoupling the two hosts like a real wire — with the
// socket drivers' backpressure: the writer re-offers capacity-refused
// frames on the offer() retry budget instead of dropping them.
type ChanDriver struct {
	peer    *ChanDriver
	depth   int
	ing     atomic.Pointer[ingressRef]
	q       *egressQueue // nil in synchronous mode
	st      counters
	opened  atomic.Bool
	closing atomic.Bool
	closed  atomic.Bool
}

// ingressRef boxes the Ingress interface for atomic publication.
type ingressRef struct{ ing Ingress }

// NewChanPair builds the two ends of one in-process link; bind each
// end to its host with Bind. depth 0 is synchronous delivery, depth>0
// a buffered channel of that capacity.
func NewChanPair(depth int) (*ChanDriver, *ChanDriver) {
	a := &ChanDriver{depth: depth}
	b := &ChanDriver{depth: depth}
	a.peer, b.peer = b, a
	return a, b
}

// Name implements PortDriver.
func (d *ChanDriver) Name() string { return "chan" }

// Open implements PortDriver.
func (d *ChanDriver) Open(ing Ingress) error {
	if ing == nil {
		return errors.New("portio: chan driver needs an ingress")
	}
	if !d.opened.CompareAndSwap(false, true) {
		return errors.New("portio: chan driver already open")
	}
	d.ing.Store(&ingressRef{ing: ing})
	if d.depth > 0 {
		d.q = newEgressQueue(d.depth, &d.st, d.deliverQueued)
		d.q.start()
	}
	return nil
}

// Sink implements PortDriver.
func (d *ChanDriver) Sink() dataplane.PortSink {
	if d.q != nil {
		return d.q.egress
	}
	return d.syncSink
}

// syncSink is the depth-0 egress: synchronous delivery from the
// transmitting TX thread, like the existing unshaped fabric links (an
// unannotated sink reached through transmit's sanctioned dyncall).
func (d *ChanDriver) syncSink(_ int, data []byte, _ *dataplane.Desc) {
	d.deliver(data)
}

// deliver is the in-process "wire write": hand one frame to the peer's
// ingress, keeping both ends' boundary counters. Synchronous mode runs
// this on the engine's TX thread, so a refusal is a drop, recorded in
// the peer driver's RxRefused (and, for a frame refused for what it is,
// in the peer host's RxDrops too).
func (d *ChanDriver) deliver(frame []byte) {
	p := d.peer
	ref := p.ing.Load()
	if d.closed.Load() || p.closed.Load() || ref == nil {
		d.st.txDrops.Add(1)
		return
	}
	d.st.countTx(len(frame))
	p.st.countRx(len(frame))
	if err := ref.ing.Ingest(frame); err != nil {
		p.st.rxRefused.Add(1)
	}
}

// deliverQueued is the buffered-mode wire write, running on the writer
// goroutine where stalling is allowed: capacity refusals are re-offered
// on the offer() retry budget (the backlog waits in the egress queue,
// the buffered channel playing the kernel socket buffer's role), so a
// queued link only loses frames when the peer stays wedged past the
// budget. IngestBurst's prefix-stop contract makes the retry safe: a
// refused frame touched no host counter.
func (d *ChanDriver) deliverQueued(frame []byte) {
	fs := [][]byte{frame}
	p := d.peer
	for tries := 0; ; tries++ {
		ref := p.ing.Load()
		if d.closed.Load() || p.closed.Load() || ref == nil {
			d.st.txDrops.Add(1)
			return
		}
		adm, cons := ref.ing.IngestBurst(fs)
		if cons == 1 {
			d.st.countTx(len(frame))
			p.st.countRx(len(frame))
			if adm == 0 {
				// Consumed but not admitted: malformed or unbound —
				// the host counted it (RxDrops), mirror it here.
				p.st.rxRefused.Add(1)
			}
			return
		}
		if tries >= ingestRetries {
			// Gave up: the frame crossed the link but never reached a
			// host counter; the driver's RxRefused is its only record.
			d.st.countTx(len(frame))
			p.st.countRx(len(frame))
			p.st.rxRefused.Add(1)
			return
		}
		time.Sleep(ingestRetrySleep)
	}
}

// Close implements PortDriver: the egress queue drains first (queued
// frames still reach the peer), then the end latches closed and the
// peer's subsequent egress toward it counts in the peer's TxDrops.
func (d *ChanDriver) Close() error {
	if !d.closing.CompareAndSwap(false, true) {
		return nil
	}
	if d.q != nil {
		d.q.close()
	}
	d.closed.Store(true)
	return nil
}

// Stats implements PortDriver.
func (d *ChanDriver) Stats() DriverStats { return d.st.snapshot() }
