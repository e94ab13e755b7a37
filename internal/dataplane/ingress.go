package dataplane

// Driver ingress boundary: the one admission path into a host, and the
// seam internal/portio plugs into.
//
// Every frame enters through ingest — Ingest for one frame, IngestBurst
// for a burst — and one rule accounts for it:
//
//   - A frame refused for what it is — its port has no ingress binding,
//     it exceeds FrameCap, or packet.Parse rejects it — is consumed: it
//     counts once in RxPackets and once in RxDrops and never enters the
//     packet path (no zero-FlowKey descriptor reaches the miss path).
//   - A frame refused for capacity — pool exhausted, NIC ring full, host
//     stopped — touches no counter. It goes back to the caller with
//     ErrIngestRefused, to retry or to count as its own loss.
//   - An admitted frame counts in RxPackets when the RX thread dequeues
//     it.
//
// Once the host is idle this gives, for non-parallel dispatch,
//
//	RxPackets = TxPackets + Drops + Overflows + TxDrops + RxDrops
//
// exactly (HostStats.Drops explains the parallel fan-out exception).

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/mempool"
	"sdnfv/internal/packet"
)

// Sentinel errors the ingest path classifies refusals with. Frames
// refused with the first three are counted in HostStats.RxDrops;
// ErrIngestRefused frames are counted nowhere.
var (
	// ErrFrameOversize reports a frame larger than FrameCap.
	ErrFrameOversize = errors.New("dataplane: frame exceeds pool frame cap")
	// ErrMalformedFrame reports a frame packet.Parse rejected.
	ErrMalformedFrame = errors.New("dataplane: malformed frame")
	// ErrPortUnbound reports a frame for a port with no ingress binding.
	ErrPortUnbound = errors.New("dataplane: no ingress bound on port")
	// ErrIngestRefused reports a capacity refusal: pool exhausted, NIC
	// ring full, or host stopped.
	ErrIngestRefused = errors.New("dataplane: ingest refused")

	errPoolExhausted = fmt.Errorf("%w: %w", ErrIngestRefused, mempool.ErrExhausted)
	errRingFull      = fmt.Errorf("%w: NIC ring full", ErrIngestRefused)
	errHostStopped   = fmt.Errorf("%w: host stopped", ErrIngestRefused)
)

// DriverStats is a port driver's boundary telemetry: what crossed the
// wire seam, and what died at it. The host merges registered drivers'
// stats into HostStats.Ports; the counters are the driver's own and sit
// outside the host conservation identity (RxRefused frames the host
// refused for what they are, for example, also appear in
// HostStats.RxDrops).
type DriverStats struct {
	// RxFrames/RxBytes count frames read off the wire and offered to
	// the host ingress (including ones the host then refused).
	RxFrames uint64
	RxBytes  uint64
	// TxFrames/TxBytes count frames written to the wire.
	TxFrames uint64
	TxBytes  uint64
	// RxOversize counts wire frames larger than the ingress frame cap,
	// dropped by the driver before reaching the host.
	RxOversize uint64
	// RxTruncated counts short reads and truncated framing (a TCP
	// stream cut mid-frame, a datagram shorter than its header).
	RxTruncated uint64
	// RxRefused counts frames read off the wire that never entered the
	// packet path: refused at the boundary (malformed, unbound — those
	// also appear in HostStats.RxDrops) or dropped by the driver after
	// its capacity-retry budget expired (those touched no host counter).
	RxRefused uint64
	// TxDrops counts egress frames never written: link down, egress
	// queue full, or a write error.
	TxDrops uint64
	// Reconnects counts re-established connections (TCP backoff loop).
	Reconnects uint64
}

// PortDriverStats is one port's DriverStats inside a HostStats snapshot.
type PortDriverStats struct {
	Port   int
	Driver string
	DriverStats
}

// FrameCap is the largest frame Ingest admits: the pool buffer size.
// Drivers size their receive buffers from it so oversize wire frames
// are detected at the boundary instead of truncated silently.
func (h *Host) FrameCap() int { return bufSize }

// ingressTable is the immutable ingress-bound port set, published
// atomically like egressTable so Ingest stays lock-free.
type ingressTable struct {
	bound []bool
}

func (t *ingressTable) has(port int) bool {
	return t != nil && port >= 0 && port < len(t.bound) && t.bound[port]
}

// BindIngress marks port as having a driver ingress attached, admitting
// Ingest on it. Drivers bind before opening and unbind after draining
// (portio.Bind handles both), so frames from a half-torn-down wire are
// classified ErrPortUnbound rather than racing the teardown.
func (h *Host) BindIngress(port int) { h.setIngress(port, true) }

// UnbindIngress removes port's ingress binding; subsequent Ingest calls
// on it count in RxDrops and return ErrPortUnbound.
func (h *Host) UnbindIngress(port int) { h.setIngress(port, false) }

func (h *Host) setIngress(port int, bound bool) {
	if port < 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.ingress.Load()
	next := &ingressTable{}
	if cur != nil {
		next.bound = append([]bool(nil), cur.bound...)
	}
	for len(next.bound) <= port {
		next.bound = append(next.bound, false)
	}
	next.bound[port] = bound
	h.ingress.Store(next)
}

// registeredPort is one driver's stats hook, keyed by port.
type registeredPort struct {
	port   int
	driver string
	fn     func() DriverStats
}

// RegisterPortStats attaches a driver's stats snapshot function to
// port, so Stats() can merge wire-boundary telemetry into
// HostStats.Ports. Re-registering a port replaces the previous hook.
// The hook must be safe to call concurrently and must not call back
// into host lifecycle or stats methods.
func (h *Host) RegisterPortStats(port int, driver string, fn func() DriverStats) {
	if fn == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ports == nil {
		h.ports = make(map[int]registeredPort)
	}
	h.ports[port] = registeredPort{port: port, driver: driver, fn: fn}
}

// UnregisterPortStats detaches port's stats hook.
func (h *Host) UnregisterPortStats(port int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.ports, port)
}

// portDriverStats snapshots every registered driver, ordered by port.
// The hooks run outside h.mu so a driver snapshot can never deadlock
// against the host lock.
func (h *Host) portDriverStats() []PortDriverStats {
	h.mu.Lock()
	regs := make([]registeredPort, 0, len(h.ports))
	for _, r := range h.ports {
		regs = append(regs, r)
	}
	h.mu.Unlock()
	if len(regs) == 0 {
		return nil
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].port < regs[j].port })
	out := make([]PortDriverStats, len(regs))
	for i, r := range regs {
		out[i] = PortDriverStats{Port: r.port, Driver: r.driver, DriverStats: r.fn()}
	}
	return out
}

// Ingest delivers one frame into the host NIC on port: IngestBurst for
// a burst of one. It returns the frame's refusal, if any:
// ErrPortUnbound, ErrFrameOversize or ErrMalformedFrame (counted in
// RxPackets and RxDrops), or ErrIngestRefused (counted nowhere; the
// caller may retry). The frame is copied; the caller keeps ownership.
// Safe for concurrent use.
func (h *Host) Ingest(port int, frame []byte) error {
	_, _, err := h.ingest(port, [][]byte{frame})
	return err
}

// IngestBurst delivers frames into port in order and returns (admitted,
// consumed). frames[:consumed] are settled: admitted, or refused for
// what they are and counted. frames[consumed:] met a capacity refusal,
// touched no counter, and stay the caller's to re-offer once the
// backlog drains. An unbound port consumes (and counts) the whole
// burst: retrying a dead port is pointless. Frames are copied, not
// retained. Safe for concurrent use.
func (h *Host) IngestBurst(port int, frames [][]byte) (admitted, consumed int) {
	admitted, consumed, _ = h.ingest(port, frames)
	return admitted, consumed
}

// ingestBatch is how many admitted descriptors ingest stages before
// handing them to the NIC ring under one injectMu acquisition.
const ingestBatch = 32

// ingest is the one admission path (see the package comment at the top
// of this file for its accounting rule). It stages admitted descriptors
// and flushes the stage before settling a refused frame, so the
// consumed prefix stays in order. err is the last refusal seen.
func (h *Host) ingest(port int, frames [][]byte) (admitted, consumed int, err error) {
	if !h.ingress.Load().has(port) {
		h.countRxDrop(uint64(len(frames)))
		return 0, len(frames), fmt.Errorf("%w %d", ErrPortUnbound, port)
	}
	var (
		stage   [ingestBatch]Desc
		n       int    // stage holds frames[consumed:consumed+n]
		refused uint64 // frames consumed without being admitted
	)
	// The extra last pass flushes whatever the burst left staged.
	for i := 0; i <= len(frames); i++ {
		var ferr error
		if i < len(frames) {
			var d Desc
			if d, ferr = h.admit(port, frames[i]); ferr == nil {
				stage[n] = d
				if n++; n < len(stage) {
					continue
				}
			}
		}
		q, qerr := h.enqueue(stage[:n])
		admitted += q
		consumed += q
		n = 0
		if qerr != nil {
			err = qerr
			break
		}
		if ferr != nil {
			err = ferr
			if errors.Is(ferr, ErrIngestRefused) {
				break
			}
			refused++
			consumed++
		}
	}
	if refused > 0 {
		h.countRxDrop(refused)
	}
	return admitted, consumed, err
}

// enqueue hands staged descriptors to the RX thread and releases the
// ones it could not take. The stop check shares injectMu with Stop's
// ring drain, so every descriptor is either refused here or released by
// the drain.
func (h *Host) enqueue(stage []Desc) (int, error) {
	if len(stage) == 0 {
		return 0, nil
	}
	h.injectMu.Lock()
	stopped := h.stop.Load()
	q := 0
	if !stopped {
		q = h.nicIn.EnqueueBatch(stage)
	}
	h.injectMu.Unlock()
	if q == len(stage) {
		return q, nil
	}
	for i := q; i < len(stage); i++ {
		h.release(stage[i].H)
	}
	if stopped {
		return q, errHostStopped
	}
	return q, errRingFull
}

// countRxDrop records frames the boundary refused for what they are:
// once in RxPackets (they reached the host) and once in RxDrops.
func (h *Host) countRxDrop(n uint64) {
	h.rxCount.Add(n)
	h.rxDropCount.Add(n)
}

// admit copies frame into a pool buffer and builds its descriptor,
// enforcing the size cap and parseability.
func (h *Host) admit(port int, frame []byte) (Desc, error) {
	if len(frame) > bufSize {
		return Desc{}, fmt.Errorf("%w: %dB > %dB", ErrFrameOversize, len(frame), bufSize)
	}
	hd, err := h.pool.Alloc()
	if err != nil {
		return Desc{}, errPoolExhausted
	}
	buf, _ := h.pool.Buf(hd)
	copy(buf, frame)
	_ = h.pool.SetLength(hd, len(frame))
	v, err := packet.Parse(buf[:len(frame)])
	if err != nil {
		h.release(hd)
		return Desc{}, fmt.Errorf("%w: %v", ErrMalformedFrame, err)
	}
	return Desc{
		H:            hd,
		Scope:        flowtable.Port(port),
		View:         v,
		Key:          v.FlowKey(),
		ArrivalNanos: time.Now().UnixNano(),
	}, nil
}
