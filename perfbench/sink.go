package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"sdnfv/internal/dataplane"
	"sdnfv/internal/packet"
)

const burstLen = 32

var epoch = time.Now()

// nowNs is the benchmark clock: monotonic nanoseconds since start.
func nowNs() int64 { return int64(time.Since(epoch)) }

// trial is one open-loop offer of n frames (seq base..base+n-1) at a
// fixed rate, shared by the generator that fills sent/late and the sink
// that marks arrivals.
type trial struct {
	base     uint64
	n        int
	t0       int64   // due time of burst 0
	periodNs float64 // between bursts
	// sent is each burst's actual offer time (written by the generator
	// before IngestBurst, so the ring handoff orders it before the sink's
	// read); late is sent minus due, clamped at 0.
	sent []int64
	late []int64

	seen   []atomic.Uint64 // arrival bitmap
	first  []atomic.Uint64 // frames whose pkt index is 0
	lat    []uint32        // due-to-egress ns per frame (valid where seen)
	visits []atomic.Uint64 // frames the scrubber saw (appaware)

	delivered atomic.Int64
	dups      atomic.Int64
	corrupt   atomic.Int64

	// Traced trials attribute NF batch time and sink time per frame.
	nfNs   []atomic.Uint32
	sinkNs []atomic.Uint32
}

func newTrial(base uint64, n int, rateKpps float64, traced bool) *trial {
	n -= n % burstLen
	words := (n + 63) / 64
	t := &trial{
		base: base, n: n,
		periodNs: burstLen * 1e6 / rateKpps,
		sent:     make([]int64, n/burstLen),
		late:     make([]int64, n/burstLen),
		seen:     make([]atomic.Uint64, words),
		first:    make([]atomic.Uint64, words),
		lat:      make([]uint32, n),
		visits:   make([]atomic.Uint64, words),
	}
	if traced {
		t.nfNs = make([]atomic.Uint32, n)
		t.sinkNs = make([]atomic.Uint32, n)
	}
	return t
}

func (t *trial) due(k int) int64 { return t.t0 + int64(float64(k)*t.periodNs) }

// index maps seq into the trial, ok=false when it belongs elsewhere.
func (t *trial) index(seq uint64) (int, bool) {
	if t == nil || seq < t.base || seq >= t.base+uint64(t.n) {
		return 0, false
	}
	return int(seq - t.base), true
}

// bitSet sets bit i and reports whether it was already set. It uses a
// CAS loop rather than atomic Or: go1.24.0 miscompiles an inlined
// Uint64.Or whose result is discarded (the index register is clobbered).
func bitSet(b []atomic.Uint64, i int) (was bool) {
	w, m := &b[i>>6], uint64(1)<<(i&63)
	for {
		old := w.Load()
		if old&m != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|m) {
			return false
		}
	}
}

func bitGet(b []atomic.Uint64, i int) bool {
	return b[i>>6].Load()&(uint64(1)<<(i&63)) != 0
}

// sink is the egress PortSink at the end of every workload: it verifies
// each frame (stamp check, 5-tuple, seq → flow mapping), rejects
// duplicates through the trial bitmap, and records due-to-egress time.
type sink struct {
	st    stream
	cur   atomic.Pointer[trial]
	stray atomic.Int64 // frames of no current trial (late or forged)
}

func (s *sink) egress(_ int, data []byte, _ *dataplane.Desc) {
	now := nowNs()
	tr := s.cur.Load()
	v, err := packet.Parse(data)
	if err != nil {
		if tr != nil {
			tr.corrupt.Add(1)
		}
		return
	}
	seq, flow, pkt, ok := readStamp(v.Payload())
	i, in := tr.index(seq)
	if !in {
		s.stray.Add(1)
		return
	}
	if wantFlow, _ := s.st.flowOf(seq); !ok || flow != wantFlow || v.FlowKey() != s.st.key(flow) {
		tr.corrupt.Add(1)
		return
	}
	if bitSet(tr.seen, i) {
		tr.dups.Add(1)
		return
	}
	if pkt == 0 {
		bitSet(tr.first, i)
	}
	start := tr.due(i / burstLen)
	if sent := tr.sent[i/burstLen]; sent < start {
		// Sent early (the pacer wakes slightly ahead of a due time):
		// time from the actual offer.
		start = sent
	}
	d := now - start
	if d > int64(^uint32(0)) {
		d = int64(^uint32(0))
	}
	tr.lat[i] = uint32(d)
	tr.delivered.Add(1)
}

// seqOf reads the stamped seq of a frame whose payload starts at off.
func seqOf(payload []byte) (uint64, bool) {
	if len(payload) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(payload), true
}
